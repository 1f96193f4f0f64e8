(* Tests for logical plans (Figure 5), rewrite rules (§3), the cost
   model, and the plan-level optimizer (§5). *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Plan = Xfrag_core.Plan
module Rewrite = Xfrag_core.Rewrite
module Cost = Xfrag_core.Cost
module Optimizer = Xfrag_core.Optimizer
module Selection = Xfrag_core.Selection
module Op_stats = Xfrag_core.Op_stats
module Exec = Xfrag_core.Exec
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

let ctx = lazy (Paper.figure1_context ())

let paper_query ?(filter = Filter.Size_at_most 3) () = Query.make ~filter Paper.query_keywords

(* --- initial plan --- *)

let scan k = Plan.Scan_keyword k

let fixed_point ?(prune = Filter.True) ?(rounds = Plan.Until_stable) seed =
  Plan.Fixed_point { prune; rounds; seed }

let test_initial_plan_shape () =
  let q = paper_query () in
  match Plan.initial q with
  | Plan.Select (Filter.Size_at_most 3, Plan.Power_join [ Plan.Scan_keyword k1; Plan.Scan_keyword k2 ]) ->
      Alcotest.(check string) "first keyword" "optimization" k1;
      Alcotest.(check string) "second keyword" "xquery" k2
  | p -> Alcotest.failf "unexpected initial plan %s" (Format.asprintf "%a" Plan.pp p)

let test_initial_plan_three_keywords () =
  let q = Query.make [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "one 3-ary power join" true
    (Plan.initial q = Plan.Select (Filter.True, Plan.Power_join [ scan "a"; scan "b"; scan "c" ]))

(* --- plan evaluation matches Eval --- *)

let test_initial_plan_evaluates_to_answer () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  Alcotest.check set_testable "plan eval = strategy eval"
    (Eval.answers ~strategy:Eval.Brute_force c q)
    (Plan.run c (Plan.initial q));
  (* One keyword: σ_true(F⁺), the six fragments of F(optimization)⁺. *)
  Alcotest.(check int) "single keyword keeps F⁺" 6
    (Frag_set.cardinal (Plan.run c (Plan.initial (Query.make [ "optimization" ]))))

(* --- rewrite rules preserve semantics --- *)

let test_power_to_fixpoint_shape () =
  let q = paper_query () in
  Alcotest.(check bool) "F1⁺ ⋈ F2⁺" true
    (Rewrite.power_to_fixpoint (Plan.initial q)
    = Plan.Select
        ( Filter.Size_at_most 3,
          Plan.Join
            {
              prune = Filter.True;
              left = fixed_point (scan "optimization");
              right = fixed_point (scan "xquery");
            } ))

let test_use_reduction_shape () =
  let q = paper_query () in
  match Rewrite.use_reduction (Rewrite.power_to_fixpoint (Plan.initial q)) with
  | Plan.Select
      ( _,
        Plan.Join
          {
            left = Plan.Fixed_point { rounds = Plan.Theorem1; _ };
            right = Plan.Fixed_point { rounds = Plan.Theorem1; _ };
            _;
          } ) ->
      ()
  | p -> Alcotest.failf "unexpected shape %s" (Format.asprintf "%a" Plan.pp p)

let test_push_selection_shape () =
  (* Figure 5: the anti-monotonic selection moves below the join and into
     both fixed points; the residual (here nothing) stays on top. *)
  let q = paper_query () in
  let am = Filter.Size_at_most 3 in
  Alcotest.(check bool) "pruned join of pruned fixed points" true
    (Rewrite.push_selection (Rewrite.power_to_fixpoint (Plan.initial q))
    = Plan.Select
        ( Filter.True,
          Plan.Join
            {
              prune = am;
              left = fixed_point ~prune:am (scan "optimization");
              right = fixed_point ~prune:am (scan "xquery");
            } ))

let test_push_selection_id_without_am_filter () =
  let q = Query.make ~filter:(Filter.Size_at_least 2) [ "xquery"; "optimization" ] in
  let base = Rewrite.power_to_fixpoint (Plan.initial q) in
  Alcotest.(check bool) "no change" true (base = Rewrite.push_selection base)

let test_mixed_filter_residual_on_top () =
  let filter = Filter.And (Filter.Size_at_most 3, Filter.Size_at_least 2) in
  let q = Query.make ~filter [ "xquery"; "optimization" ] in
  let p = Rewrite.push_selection (Rewrite.power_to_fixpoint (Plan.initial q)) in
  match p with
  | Plan.Select (Filter.Size_at_least 2, Plan.Join { prune = Filter.Size_at_most 3; _ }) -> ()
  | p -> Alcotest.failf "residual not on top: %s" (Format.asprintf "%a" Plan.pp p)

let rewrites_preserve_semantics_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"rewrites preserve answers" ~count:30
       QCheck2.Gen.(pair (1 -- 10_000) (4 -- 30))
       (fun (seed, size) ->
         let c = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 43) in
         let k1 = Printf.sprintf "id%d" (Prng.int prng size) in
         let k2 = Printf.sprintf "tok%d" (Prng.int prng 8) in
         let filter =
           Filter.And
             (Filter.Size_at_most (2 + Prng.int prng 4), Filter.Size_at_least 1)
         in
         let q = Query.make ~filter [ k1; k2 ] in
         let reference = Plan.run c (Rewrite.power_to_fixpoint (Plan.initial q)) in
         List.for_all
           (fun strategy ->
             Frag_set.equal reference (Plan.run c (Optimizer.plan_of strategy q)))
           [ Eval.Set_reduction; Eval.Pushdown; Eval.Pushdown_reduction; Eval.Semi_naive ]))

let test_paper_example_all_rewrites () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let reference = Plan.run c (Plan.initial q) in
  List.iter
    (fun strategy ->
      Alcotest.check set_testable (Eval.strategy_name strategy) reference
        (Plan.run c (Optimizer.plan_of strategy q)))
    Eval.all_strategies

(* --- printing --- *)

let test_pp_plan () =
  let q = paper_query () in
  let rendered = Format.asprintf "%a" Plan.pp (Plan.initial q) in
  Alcotest.(check bool) "mentions both keywords" true
    (let has s = Astring.String.is_infix ~affix:s rendered in
     has "optimization" && has "xquery")

let test_pp_tree_multiline () =
  let q = paper_query () in
  let rendered =
    Format.asprintf "%a" Plan.pp_tree (Optimizer.plan_of Eval.Pushdown_reduction q)
  in
  Alcotest.(check bool) "multiple lines" true
    (List.length (String.split_on_char '\n' rendered) > 3)

let test_operator_count () =
  let q = paper_query () in
  Alcotest.(check int) "initial: select + power + 2 scans" 4
    (Plan.operator_count (Plan.initial q))

(* --- cost model and optimizer --- *)

let test_cost_monotone_in_postings () =
  let c = Lazy.force ctx in
  (* optimization occurs in 3 nodes, xquery in 2: scan cost reflects it. *)
  let cost_k k = Cost.cost c (Plan.Scan_keyword k) in
  Alcotest.(check bool) "3 postings > 2" true (cost_k "optimization" > cost_k "xquery")

let test_cost_prefers_pushdown () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let base = Rewrite.power_to_fixpoint (Plan.initial q) in
  let pushed = Rewrite.push_selection base in
  Alcotest.(check bool) "pushdown estimated cheaper" true
    (Cost.cost c pushed < Cost.cost c base)

let test_selectivity_bounds () =
  let filters =
    [
      Filter.True;
      Filter.Size_at_most 3;
      Filter.Not (Filter.Size_at_most 3);
      Filter.And (Filter.Size_at_most 3, Filter.Contains_keyword "x");
      Filter.Or (Filter.Size_at_most 3, Filter.Contains_keyword "x");
      Filter.Equal_depth ("a", "b");
    ]
  in
  List.iter
    (fun p ->
      let s = Cost.selectivity p in
      Alcotest.(check bool) (Filter.to_string p) true (s >= 0.0 && s <= 1.0))
    filters

(* §5's rule, not a cost ranking: an anti-monotonic filter means
   semi-naive without a probe, and the plan is that strategy's shape. *)
let test_optimizer_chooses_valid_plan () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let scans = List.map (fun k -> (k, Selection.keyword c k)) q.Query.keywords in
  let stats = Op_stats.create () in
  let d = Optimizer.decide ~stats c (Exec.Request.of_query q) q scans in
  Alcotest.(check string) "semi-naive" "semi-naive" (Eval.strategy_name d.Optimizer.strategy);
  Alcotest.(check bool) "its plan shape" true
    (d.Optimizer.plan = Optimizer.plan_of Eval.Semi_naive q);
  Alcotest.(check int) "no probe" 0 (Op_stats.total_work stats);
  Alcotest.check set_testable "optimizer plan is correct"
    (Eval.answers ~strategy:Eval.Brute_force c q)
    (Plan.run c d.Optimizer.plan)

let test_optimizer_probes_rf () =
  let c = Lazy.force ctx in
  let q = paper_query ~filter:Filter.True () in
  let scans = List.map (fun k -> (k, Selection.keyword c k)) q.Query.keywords in
  let d = Optimizer.decide c (Exec.Request.of_query q) q scans in
  (* F2 = {16,17,81} reduces to {17,81}: RF = 1/3 ≥ 0.25. *)
  (match List.assoc_opt "optimization" d.Optimizer.reduced with
  | Some r -> Alcotest.(check int) "⊖(F2) = {17, 81}" 2 (Frag_set.cardinal r)
  | None -> Alcotest.fail "optimization not probed");
  Alcotest.(check string) "set reduction pays" "set-reduction"
    (Eval.strategy_name d.Optimizer.strategy)

let test_explain_mentions_plans () =
  let c = Lazy.force ctx in
  let report = Optimizer.explain c (paper_query ~filter:Filter.True ()) in
  Alcotest.(check bool) "names the strategy" true
    (Astring.String.is_infix ~affix:"strategy: set-reduction" report);
  Alcotest.(check bool) "mentions RF" true
    (Astring.String.is_infix ~affix:"RF" report)

let () =
  Alcotest.run "plan"
    [
      ( "shape",
        [
          Alcotest.test_case "initial (2 keywords)" `Quick test_initial_plan_shape;
          Alcotest.test_case "initial (3 keywords)" `Quick test_initial_plan_three_keywords;
          Alcotest.test_case "power_to_fixpoint" `Quick test_power_to_fixpoint_shape;
          Alcotest.test_case "use_reduction" `Quick test_use_reduction_shape;
          Alcotest.test_case "push_selection (Fig 5)" `Quick test_push_selection_shape;
          Alcotest.test_case "pushdown id without AM filter" `Quick
            test_push_selection_id_without_am_filter;
          Alcotest.test_case "residual on top" `Quick test_mixed_filter_residual_on_top;
          Alcotest.test_case "operator count" `Quick test_operator_count;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "initial plan evaluates" `Quick test_initial_plan_evaluates_to_answer;
          Alcotest.test_case "all rewrites on paper example" `Quick test_paper_example_all_rewrites;
          rewrites_preserve_semantics_prop;
        ] );
      ( "printing",
        [
          Alcotest.test_case "pp" `Quick test_pp_plan;
          Alcotest.test_case "pp_tree" `Quick test_pp_tree_multiline;
        ] );
      ( "cost+optimizer",
        [
          Alcotest.test_case "cost monotone in postings" `Quick test_cost_monotone_in_postings;
          Alcotest.test_case "cost prefers pushdown" `Quick test_cost_prefers_pushdown;
          Alcotest.test_case "selectivity bounds" `Quick test_selectivity_bounds;
          Alcotest.test_case "optimizer validity" `Quick test_optimizer_chooses_valid_plan;
          Alcotest.test_case "optimizer probes RF" `Quick test_optimizer_probes_rf;
          Alcotest.test_case "explain" `Quick test_explain_mentions_plans;
        ] );
    ]
