(* EXPLAIN ANALYZE tests: a full rendering snapshot of the paper's
   Table 1 query under the deterministic counter clock (every operator's
   exclusive window is exactly one clock step), and the contract that
   EXPLAIN profiles exactly what Eval.exec runs — same answers, and
   per-operator counter deltas (probe included) summing to its Op_stats. *)

module Explain = Xfrag_core.Explain
module Clock = Xfrag_obs.Clock
module Context = Xfrag_core.Context
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Op_stats = Xfrag_core.Op_stats
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let request ?(filter = Filter.Size_at_most 3) ?(strategy = Eval.Auto)
    ?(strict = false) keywords =
  Exec.Request.(
    default |> with_keywords keywords |> with_filter filter
    |> with_strategy strategy |> with_strict_leaf strict)

let table1 = request Paper.query_keywords

let analyze ?(r = table1) () =
  let ctx = Paper.figure1_context () in
  (ctx, Explain.analyze_request ~clock:(Clock.counter ()) ctx r)

let rec nodes (n : Explain.node) = n :: List.concat_map nodes n.Explain.children

(* Every counter of the report, probe included, summed by name. *)
let summed_counters (report : Explain.report) =
  let all = Option.to_list report.Explain.probe @ nodes report.Explain.root in
  List.filter_map
    (fun (name, _) ->
      match
        List.fold_left
          (fun acc (n : Explain.node) ->
            acc + Option.value ~default:0 (List.assoc_opt name n.Explain.counters))
          0 all
      with
      | 0 -> None
      | total -> Some (name, total))
    (Op_stats.to_assoc (Op_stats.create ()))

let nonzero stats = List.filter (fun (_, v) -> v <> 0) (Op_stats.to_assoc stats)

let test_answers_agree () =
  let ctx, report = analyze () in
  let expected = (Eval.exec ctx table1).Eval.answers in
  Alcotest.(check bool) "same answers" true
    (Frag_set.equal expected report.Explain.answers);
  Alcotest.(check int) "root rows = answers"
    (Frag_set.cardinal expected)
    report.Explain.root.Explain.rows

let test_deterministic_timing () =
  let _, report = analyze () in
  let ops = List.length (nodes report.Explain.root) in
  Alcotest.(check int) "six operators" 6 ops;
  (* each operator's exclusive window is one counter-clock step *)
  Alcotest.(check int) "total = ops * step" (ops * 1000) report.Explain.total_ns;
  List.iter
    (fun (n : Explain.node) ->
      Alcotest.(check int) (n.Explain.op ^ " self") 1000 n.Explain.self_ns)
    (nodes report.Explain.root)

let test_counters_sum () =
  (* The semi-naive plan the CLI's default query runs: 30 joins in 4
     delta rounds, the figures of test/cli/query.expected. *)
  let ctx, report = analyze () in
  Alcotest.(check (list (pair string int)))
    "deltas sum to Eval.exec's stats"
    (nonzero (Eval.exec ctx table1).Eval.stats)
    (summed_counters report);
  Alcotest.(check (option int)) "joins" (Some 30)
    (List.assoc_opt "fragment_joins" (summed_counters report));
  Alcotest.(check (option int)) "delta rounds" (Some 4)
    (List.assoc_opt "fixpoint_rounds" (summed_counters report))

(* The requests that used to diverge from /query: a forced strategy,
   strict-leaf semantics and a lone keyword. *)
let test_figure1_requests () =
  let check name r ~strategy ~answers ~joins =
    let _, report = analyze ~r () in
    Alcotest.(check string) (name ^ " strategy") strategy
      (Eval.strategy_name report.Explain.strategy);
    Alcotest.(check int) (name ^ " answers") answers
      (Frag_set.cardinal report.Explain.answers);
    Alcotest.(check (option int)) (name ^ " joins") (Some joins)
      (List.assoc_opt "fragment_joins" (summed_counters report))
  in
  check "naive" (request ~strategy:Eval.Naive_fixpoint Paper.query_keywords)
    ~strategy:"naive" ~answers:4 ~joins:55;
  check "strict" (request ~strict:true Paper.query_keywords)
    ~strategy:"semi-naive" ~answers:3 ~joins:30;
  check "one keyword" (request ~filter:Filter.True [ "optimization" ])
    ~strategy:"set-reduction" ~answers:6 ~joins:12

let agrees_with_eval_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"EXPLAIN profiles what Eval.exec runs" ~count:40
       QCheck2.Gen.(triple (0 -- 10_000) (4 -- 30) (1 -- 3))
       (fun (seed, size, m) ->
         let prng = Prng.create (seed * 53) in
         (* Every fourth case queries the paper document, sometimes with
            a keyword it lacks. *)
         let ctx, keywords =
           if seed mod 4 = 0 then
             let pool = [| "optimization"; "xquery"; "query"; "search"; "zzz" |] in
             ( Paper.figure1_context (),
               List.init m (fun _ -> pool.(Prng.int prng (Array.length pool))) )
           else
             ( Random_tree.context ~seed ~size,
               List.init m (fun i ->
                   if i = 0 then Printf.sprintf "id%d" (Prng.int prng size)
                   else Printf.sprintf "tok%d" (Prng.int prng 8)) )
         in
         let bound = 2 + (seed mod 4) in
         List.for_all
           (fun filter ->
             List.for_all
               (fun strategy ->
                 List.for_all
                   (fun strict ->
                     let r = request ~filter ~strategy ~strict keywords in
                     match Eval.exec ctx r with
                     | exception Invalid_argument _ -> (
                         match Explain.analyze_request ctx r with
                         | exception Invalid_argument _ -> true
                         | _ -> false)
                     | o ->
                         let report = Explain.analyze_request ctx r in
                         Frag_set.equal o.Eval.answers report.Explain.answers
                         && o.Eval.strategy_used = report.Explain.strategy
                         && nonzero o.Eval.stats = summed_counters report)
                   [ false; true ])
               (Eval.Auto :: Eval.all_strategies))
           [
             Filter.Size_at_most bound;
             Filter.Size_at_least 2;
             Filter.And (Filter.Size_at_most (bound + 1), Filter.Size_at_least 2);
           ]))

let expected_snapshot =
  String.concat "\n"
    [
      "EXPLAIN ANALYZE";
      "query: Q[size<=3]{optimization, xquery}";
      "strategy: semi-naive";
      "plan:  \xcf\x83_{true}((F(optimization)\xe2\x81\xba\xe1\xb5\x9f[size<=3] \xe2\x8b\x88[size<=3] F(xquery)\xe2\x81\xba\xe1\xb5\x9f[size<=3]))";
      "estimated cost: 5.3";
      "actual: total 6.0us, 4 answer fragment(s)";
      "";
      "\xcf\x83 true                                      rows=4      in=4         time=6.0us    self=1.0us   ";
      "  \xe2\x8b\x88 [prune size<=3]                        rows=4      in=4x3       time=5.0us    self=1.0us    fragment_joins=+12 candidates=+12 duplicates=+5 pruned=+3";
      "    fixed-point [delta] [prune size<=3]      rows=4      in=3         time=2.0us    self=1.0us    fragment_joins=+12 candidates=+12 duplicates=+2 pruned=+5 fixpoint_rounds=+2";
      "      scan optimization                      rows=3                   time=1.0us    self=1.0us   ";
      "    fixed-point [delta] [prune size<=3]      rows=3      in=2         time=2.0us    self=1.0us    fragment_joins=+6 candidates=+6 duplicates=+2 fixpoint_rounds=+2";
      "      scan xquery                            rows=2                   time=1.0us    self=1.0us   ";
      "";
    ]

let test_snapshot () =
  let _, report = analyze () in
  let out = Format.asprintf "%a" Explain.pp report in
  Alcotest.(check string) "snapshot golden" expected_snapshot out

let () =
  Alcotest.run "explain"
    [
      ( "analyze",
        [
          Alcotest.test_case "answers agree with Eval" `Quick test_answers_agree;
          Alcotest.test_case "deterministic timing" `Quick test_deterministic_timing;
          Alcotest.test_case "counter deltas" `Quick test_counters_sum;
          Alcotest.test_case "figure 1 requests" `Quick test_figure1_requests;
          Alcotest.test_case "rendering snapshot" `Quick test_snapshot;
          agrees_with_eval_prop;
        ] );
    ]
