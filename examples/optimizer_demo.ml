(* The plan-level optimizer at work (§3, §5): the initial plan, the plan
   shape each strategy derives from it through the Theorem 2 / Theorem 1
   / Theorem 3 rewrites with its cost estimate, Auto's reduction-factor
   gate, and measured operation counts for each strategy.

     dune exec examples/optimizer_demo.exe *)

module Context = Xfrag_core.Context
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Plan = Xfrag_core.Plan
module Cost = Xfrag_core.Cost
module Optimizer = Xfrag_core.Optimizer
module Docgen = Xfrag_workload.Docgen

let rule () = Format.printf "%s@." (String.make 72 '-')

let show_query ctx q =
  Format.printf "query: %a@." Query.pp q;
  rule ();
  Format.printf "initial plan: %a@." Plan.pp (Plan.initial q);
  Format.printf "plan and estimated cost per strategy:@.";
  List.iter
    (fun strategy ->
      let plan = Optimizer.plan_of strategy q in
      Format.printf "  %-14s %10.1f  %a@." (Eval.strategy_name strategy)
        (Cost.cost ctx plan) Plan.pp plan)
    Eval.all_strategies;
  rule ();
  print_string (Optimizer.explain ctx q);
  rule ();
  Format.printf "measured operation counts per strategy:@.";
  List.iter
    (fun strategy ->
      match Eval.exec ctx Exec.Request.(of_query q |> with_strategy strategy) with
      | outcome ->
          Format.printf "  %-14s answers=%-4d %a@."
            (Eval.strategy_name strategy)
            (Xfrag_core.Frag_set.cardinal outcome.Eval.answers)
            Xfrag_core.Op_stats.pp outcome.Eval.stats
      | exception Invalid_argument msg ->
          Format.printf "  %-14s (skipped: %s)@." (Eval.strategy_name strategy) msg)
    Eval.all_strategies;
  rule ()

let () =
  (* A document where the two query keywords have mid-size posting
     lists, so every strategy has real work to do. *)
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 11; sections = 5 }
      ~plant:[ ("saffron", 6); ("paella", 5) ]
  in
  let ctx = Context.create tree in
  Format.printf "document: %d nodes@.@." (Context.size ctx);

  (* Case 1: anti-monotonic filter — pushdown is available and wins. *)
  show_query ctx
    (Query.make
       ~filter:(Filter.And (Filter.Size_at_most 4, Filter.Height_at_most 2))
       [ "saffron"; "paella" ]);

  (* Case 2: non-anti-monotonic filter only — nothing can be pushed; the
     optimizer falls back to the Theorem 2 pipeline. *)
  show_query ctx
    (Query.make ~filter:(Filter.Size_at_least 2) [ "saffron"; "paella" ]);

  (* Case 3: mixed conjunction — the anti-monotonic part is pushed, the
     residual is applied on top. *)
  show_query ctx
    (Query.make
       ~filter:(Filter.And (Filter.Size_at_most 5, Filter.Equal_depth ("saffron", "paella")))
       [ "saffron"; "paella" ])
