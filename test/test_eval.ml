(* Tests for query evaluation (§2.3, §4): all strategies agree with the
   brute-force oracle, pushdown prunes work, strict leaf semantics, and
   the Auto heuristics. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Op_stats = Xfrag_core.Op_stats
module Paper = Xfrag_workload.Paper_doc
module Docgen = Xfrag_workload.Docgen
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

let ctx = lazy (Paper.figure1_context ())

let paper_query ?(filter = Filter.Size_at_most 3) () =
  Query.make ~filter Paper.query_keywords

(* --- Query.make --- *)

let test_query_make_normalizes () =
  let q = Query.make [ "XQuery"; "OPTIMIZATION"; "xquery" ] in
  Alcotest.(check (list string)) "normalized sorted deduped"
    [ "optimization"; "xquery" ] q.Query.keywords

let test_query_make_rejects_empty () =
  Alcotest.check_raises "no keywords"
    (Invalid_argument "Query.make: at least one keyword is required") (fun () ->
      ignore (Query.make [ "" ]))

let test_query_matches () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let target = Fragment.of_nodes c Paper.fragment_of_interest in
  Alcotest.(check bool) "target matches" true (Query.matches c q target);
  Alcotest.(check bool) "n18 alone lacks optimization" false
    (Query.matches c q (Fragment.singleton 18));
  Alcotest.(check bool) "n17 alone has both" true
    (Query.matches c q (Fragment.singleton 17))

let test_query_matches_strict () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  (* ⟨n16, n18⟩: optimization only in the fragment root n16 → the strict
     Definition 8 rejects it, operational semantics accepts it. *)
  let f = Fragment.of_nodes c [ 16; 18 ] in
  Alcotest.(check bool) "operational accepts" true (Query.matches c q f);
  Alcotest.(check bool) "strict rejects" false (Query.matches_strict c q f)

(* --- strategy equivalence on the paper document --- *)

let test_all_strategies_agree_on_paper_doc () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let oracle = Eval.answers ~strategy:Eval.Brute_force c q in
  List.iter
    (fun strategy ->
      Alcotest.check set_testable (Eval.strategy_name strategy) oracle
        (Eval.answers ~strategy c q))
    Eval.all_strategies

let test_paper_answer_content () =
  (* Table 1: with size ≤ 3 the final answer is exactly
     {⟨n16,n17,n18⟩, ⟨n16,n17⟩, ⟨n16,n18⟩, ⟨n17⟩}. *)
  let c = Lazy.force ctx in
  let answers = Eval.answers c (paper_query ()) in
  let expected =
    Frag_set.of_list
      [
        Fragment.of_nodes c [ 16; 17; 18 ];
        Fragment.of_nodes c [ 16; 17 ];
        Fragment.of_nodes c [ 16; 18 ];
        Fragment.singleton 17;
      ]
  in
  Alcotest.check set_testable "final answer" expected answers

let test_fragment_of_interest_retrieved () =
  (* Objective 1 of §4: the target fragment ⟨n16,n17,n18⟩ is produced. *)
  let c = Lazy.force ctx in
  let answers = Eval.answers c (paper_query ()) in
  Alcotest.(check bool) "fragment of interest present" true
    (Frag_set.mem (Fragment.of_nodes c Paper.fragment_of_interest) answers)

let test_irrelevant_fragment_excluded () =
  (* Objective 2: the 9-node fragment of Figure 8(c) is filtered out. *)
  let c = Lazy.force ctx in
  let answers = Eval.answers c (paper_query ()) in
  Alcotest.(check bool) "irrelevant excluded" false
    (Frag_set.mem (Fragment.of_nodes c [ 0; 1; 14; 16; 17; 18; 79; 80; 81 ]) answers)

let test_no_filter_returns_all_seven () =
  let c = Lazy.force ctx in
  let answers = Eval.answers c (paper_query ~filter:Filter.True ()) in
  Alcotest.(check int) "7 unique fragments" 7 (Frag_set.cardinal answers)

let test_empty_posting_list () =
  let c = Lazy.force ctx in
  let q = Query.make [ "xquery"; "zebra" ] in
  Alcotest.(check int) "empty answer" 0 (Frag_set.cardinal (Eval.answers c q))

let test_single_keyword_query () =
  let c = Lazy.force ctx in
  let q = Query.make [ "xquery" ] in
  let answers = Eval.answers ~strategy:Eval.Brute_force c q in
  (* F1 = {17, 18}; answers = F1⁺ = {⟨17⟩, ⟨18⟩, ⟨16,17,18⟩}. *)
  Alcotest.(check int) "three fragments" 3 (Frag_set.cardinal answers);
  List.iter
    (fun strategy ->
      Alcotest.check set_testable (Eval.strategy_name strategy) answers
        (Eval.answers ~strategy c q))
    Eval.all_strategies

let test_strict_leaf_semantics () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let strict = Eval.answers ~strict_leaf_semantics:true c q in
  let loose = Eval.answers c q in
  Alcotest.(check bool) "strict ⊆ loose" true (Frag_set.subset strict loose);
  (* ⟨n16,n18⟩ is the documented discrepancy: excluded under strict. *)
  Alcotest.(check bool) "⟨16,18⟩ excluded" false
    (Frag_set.mem (Fragment.of_nodes c [ 16; 18 ]) strict);
  Alcotest.(check bool) "⟨16,17,18⟩ kept" true
    (Frag_set.mem (Fragment.of_nodes c Paper.fragment_of_interest) strict)

(* --- pushdown accounting --- *)

let request ?(strategy = Eval.Auto) q =
  Xfrag_core.Exec.Request.(of_query q |> with_strategy strategy)

let test_pushdown_prunes_more () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let naive = Eval.exec c (request ~strategy:Eval.Naive_fixpoint q) in
  let push = Eval.exec c (request ~strategy:Eval.Pushdown q) in
  Alcotest.check set_testable "same answers" naive.Eval.answers push.Eval.answers;
  Alcotest.(check bool) "pushdown performs no more joins" true
    (push.Eval.stats.Op_stats.fragment_joins <= naive.Eval.stats.Op_stats.fragment_joins);
  Alcotest.(check bool) "pushdown pruned something" true
    (push.Eval.stats.Op_stats.pruned > 0)

let test_outcome_metadata () =
  let c = Lazy.force ctx in
  let q = paper_query () in
  let r = Eval.exec c (request ~strategy:Eval.Pushdown q) in
  Alcotest.(check bool) "strategy recorded" true (r.Eval.strategy_used = Eval.Pushdown);
  Alcotest.(check (list (pair string int))) "posting counts"
    [ ("optimization", 3); ("xquery", 2) ]
    (List.sort compare r.Eval.keyword_node_counts)

let test_auto_resolves () =
  let c = Lazy.force ctx in
  let r = Eval.exec c (request (paper_query ())) in
  Alcotest.(check bool) "auto resolved to concrete" true (r.Eval.strategy_used <> Eval.Auto);
  (* With an anti-monotonic filter, Auto picks pruned delta iteration. *)
  Alcotest.(check bool) "semi-naive chosen" true (r.Eval.strategy_used = Eval.Semi_naive)

(* A keyword without postings empties the answer before Auto's gate:
   no ⊖ probe, no join. *)
let test_empty_keyword_probes_nothing () =
  let generated =
    Context.create (Docgen.generate { Docgen.default with sections = 3 })
  in
  List.iter
    (fun (name, c, keywords) ->
      let o = Eval.exec c (request (Query.make keywords)) in
      Alcotest.(check int) (name ^ " answers") 0 (Frag_set.cardinal o.Eval.answers);
      Alcotest.(check int) (name ^ " joins") 0 o.Eval.stats.Op_stats.fragment_joins;
      Alcotest.(check int) (name ^ " reduce checks") 0
        o.Eval.stats.Op_stats.reduce_subset_checks;
      Alcotest.(check string) (name ^ " strategy") "semi-naive"
        (Eval.strategy_name o.Eval.strategy_used))
    [
      ("generated", generated, [ "term0003"; "zzzunknown" ]);
      ("figure 1", Lazy.force ctx, [ "optimization"; "zzzunknown" ]);
    ]

let test_strategy_of_string () =
  List.iter
    (fun (s, expected) ->
      match Eval.strategy_of_string s with
      | Ok st -> Alcotest.(check bool) s true (st = expected)
      | Error e -> Alcotest.fail e)
    [
      ("brute-force", Eval.Brute_force);
      ("naive", Eval.Naive_fixpoint);
      ("set-reduction", Eval.Set_reduction);
      ("pushdown", Eval.Pushdown);
      ("pushdown-reduction", Eval.Pushdown_reduction);
      ("auto", Eval.Auto);
    ];
  match Eval.strategy_of_string "nonsense" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

(* --- strategy equivalence on random documents (the central property) --- *)

let strategies_agree_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"all strategies match brute force" ~count:40
       QCheck2.Gen.(pair (1 -- 10_000) (4 -- 40))
       (fun (seed, size) ->
         let c = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 37) in
         (* Keywords idN occur once each; tokK occur across nodes.  Mix
            one rare and one shared keyword, random small size filter. *)
         let k1 = Printf.sprintf "id%d" (Prng.int prng size) in
         let k2 = Printf.sprintf "tok%d" (Prng.int prng 8) in
         let filter =
           if Prng.bool prng then Filter.Size_at_most (2 + Prng.int prng 5)
           else
             Filter.And
               ( Filter.Size_at_most (2 + Prng.int prng 5),
                 Filter.Size_at_least (1 + Prng.int prng 2) )
         in
         let q = Query.make ~filter [ k1; k2 ] in
         match Eval.answers ~strategy:Eval.Brute_force c q with
         | exception Invalid_argument _ -> QCheck2.assume_fail ()
         | oracle ->
             List.for_all
               (fun strategy ->
                 Frag_set.equal oracle (Eval.answers ~strategy c q))
               Eval.all_strategies))

let answers_satisfy_semantics_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"every answer satisfies Query.matches" ~count:40
       QCheck2.Gen.(pair (1 -- 10_000) (4 -- 40))
       (fun (seed, size) ->
         let c = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 41) in
         let k1 = Printf.sprintf "tok%d" (Prng.int prng 8) in
         let k2 = Printf.sprintf "tok%d" (Prng.int prng 8) in
         let q = Query.make ~filter:(Filter.Size_at_most 4) [ k1; k2 ] in
         let answers = Eval.answers ~strategy:Eval.Pushdown c q in
         Frag_set.for_all (Query.matches c q) answers))

(* Theorem 3, filter by filter: for every anti-monotonic filter shape,
   pushdown evaluation equals the late-selection reference. *)
let theorem3_per_filter_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Theorem 3 holds for every AM filter" ~count:30
       QCheck2.Gen.(pair (1 -- 10_000) (4 -- 35))
       (fun (seed, size) ->
         let c = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 47) in
         let k1 = Printf.sprintf "tok%d" (Prng.int prng 8) in
         let k2 = Printf.sprintf "tok%d" (Prng.int prng 8) in
         let filters =
           [
             Filter.Size_at_most (2 + Prng.int prng 4);
             Filter.Height_at_most (1 + Prng.int prng 2);
             Filter.Span_at_most (2 + Prng.int prng 6);
             Filter.Diameter_at_most (1 + Prng.int prng 4);
             Filter.Width_at_most (1 + Prng.int prng 5);
             Filter.Depth_under (1 + Prng.int prng 4);
             Filter.Labels_among [ "node" ];
             Filter.And
               (Filter.Size_at_most 4, Filter.Or (Filter.Height_at_most 1, Filter.Span_at_most 3));
           ]
         in
         List.for_all
           (fun filter ->
             let q = Query.make ~filter [ k1; k2 ] in
             let reference = Eval.answers ~strategy:Eval.Naive_fixpoint c q in
             Frag_set.equal reference (Eval.answers ~strategy:Eval.Pushdown c q)
             && Frag_set.equal reference
                  (Eval.answers ~strategy:Eval.Pushdown_reduction c q))
           filters))

(* --- a generated document end to end --- *)

let test_generated_document_end_to_end () =
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 99; sections = 3 }
      ~plant:[ ("needleone", 3); ("needletwo", 4) ]
  in
  let c = Context.create tree in
  let q = Query.make ~filter:(Filter.Size_at_most 4) [ "needleone"; "needletwo" ] in
  let oracle = Eval.answers ~strategy:Eval.Brute_force c q in
  List.iter
    (fun strategy ->
      Alcotest.check set_testable (Eval.strategy_name strategy) oracle
        (Eval.answers ~strategy c q))
    Eval.all_strategies;
  Alcotest.(check bool) "answers exist" true (not (Frag_set.is_empty oracle))

(* Large-document smoke test: everything holds together at 25k+ nodes
   and queries stay fast relative to construction. *)
let test_large_document () =
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 5000; sections = 900; vocabulary_size = 60_000 }
      ~plant:[ ("needleone", 12); ("needletwo", 12) ]
  in
  Alcotest.(check bool) "at least 25k nodes" true
    (Xfrag_doctree.Doctree.size tree > 25_000);
  (match Xfrag_doctree.Doctree.validate tree with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let c = Context.create tree in
  let q = Query.make ~filter:(Filter.Size_at_most 4) [ "needleone"; "needletwo" ] in
  let reference = Eval.answers ~strategy:Eval.Pushdown c q in
  List.iter
    (fun strategy ->
      Alcotest.check set_testable (Eval.strategy_name strategy) reference
        (Eval.answers ~strategy c q))
    [ Eval.Semi_naive; Eval.Pushdown_reduction ];
  Alcotest.(check bool) "all answers satisfy the query" true
    (Frag_set.for_all (Query.matches c q) reference)

(* --- pinned exact counters ---

   The exact work every strategy does, Auto's resolution included, on
   four fixed inputs x strict-leaf off/on: answer count, resolved
   strategy and every Op_stats counter.  These are the reproduction's
   "amount of computation" ledger; a refactor of the evaluator must
   leave each line byte-identical. *)

let pinned_inputs =
  let docgen seed plant =
    Context.create
      (Docgen.with_planted_keywords { Docgen.default with seed; sections = 6 } ~plant)
  in
  [
    ("fig1", lazy (Paper.figure1_context ()), [ "xquery"; "optimization" ],
      Filter.Size_at_most 3);
    ("fig1-one", lazy (Paper.figure1_context ()), [ "optimization" ], Filter.True);
    ("e1-4x4", lazy (docgen 104 [ ("needleone", 4); ("needletwo", 4) ]),
      [ "needleone"; "needletwo" ], Filter.Size_at_most 4);
    ("a1-8x8", lazy (docgen 108 [ ("needleone", 8); ("needletwo", 8) ]),
      [ "needleone"; "needletwo" ], Filter.Size_at_least 2);
  ]

let pinned_line name ctx keywords filter strategy strict =
  let r =
    Xfrag_core.Exec.Request.(
      default |> with_keywords keywords |> with_filter filter
      |> with_strategy strategy |> with_strict_leaf strict)
  in
  let head =
    Printf.sprintf "%s %s strict=%b ->" name (Eval.strategy_name strategy) strict
  in
  match Eval.exec ctx r with
  | o ->
      Format.asprintf "%s %s answers=%d %a" head
        (Eval.strategy_name o.Eval.strategy_used)
        (Frag_set.cardinal o.Eval.answers)
        Op_stats.pp o.Eval.stats
  | exception Invalid_argument _ -> head ^ " refused"

let pinned_expected =
  [
    "fig1 brute-force strict=false -> brute-force answers=4 joins=23 candidates=0 duplicates=0 pruned=0 filtered=3 rounds=0 reduce-checks=0";
    "fig1 brute-force strict=true -> brute-force answers=3 joins=23 candidates=0 duplicates=0 pruned=0 filtered=3 rounds=0 reduce-checks=0";
    "fig1 naive strict=false -> naive answers=4 joins=55 candidates=55 duplicates=30 pruned=0 filtered=3 rounds=4 reduce-checks=0";
    "fig1 naive strict=true -> naive answers=3 joins=55 candidates=55 duplicates=30 pruned=0 filtered=3 rounds=4 reduce-checks=0";
    "fig1 set-reduction strict=false -> set-reduction answers=4 joins=34 candidates=31 duplicates=15 pruned=0 filtered=3 rounds=2 reduce-checks=3";
    "fig1 set-reduction strict=true -> set-reduction answers=3 joins=34 candidates=31 duplicates=15 pruned=0 filtered=3 rounds=2 reduce-checks=3";
    "fig1 pushdown strict=false -> pushdown answers=4 joins=43 candidates=43 duplicates=13 pruned=12 filtered=0 rounds=4 reduce-checks=0";
    "fig1 pushdown strict=true -> pushdown answers=3 joins=43 candidates=43 duplicates=13 pruned=12 filtered=0 rounds=4 reduce-checks=0";
    "fig1 pushdown-red strict=false -> pushdown-red answers=4 joins=28 candidates=25 duplicates=7 pruned=7 filtered=0 rounds=2 reduce-checks=3";
    "fig1 pushdown-red strict=true -> pushdown-red answers=3 joins=28 candidates=25 duplicates=7 pruned=7 filtered=0 rounds=2 reduce-checks=3";
    "fig1 semi-naive strict=false -> semi-naive answers=4 joins=30 candidates=30 duplicates=9 pruned=8 filtered=0 rounds=4 reduce-checks=0";
    "fig1 semi-naive strict=true -> semi-naive answers=3 joins=30 candidates=30 duplicates=9 pruned=8 filtered=0 rounds=4 reduce-checks=0";
    "fig1 auto strict=false -> semi-naive answers=4 joins=30 candidates=30 duplicates=9 pruned=8 filtered=0 rounds=4 reduce-checks=0";
    "fig1 auto strict=true -> semi-naive answers=3 joins=30 candidates=30 duplicates=9 pruned=8 filtered=0 rounds=4 reduce-checks=0";
    "fig1-one brute-force strict=false -> brute-force answers=6 joins=4 candidates=0 duplicates=0 pruned=0 filtered=0 rounds=0 reduce-checks=0";
    "fig1-one brute-force strict=true -> brute-force answers=6 joins=4 candidates=0 duplicates=0 pruned=0 filtered=0 rounds=0 reduce-checks=0";
    "fig1-one naive strict=false -> naive answers=6 joins=27 candidates=27 duplicates=15 pruned=0 filtered=0 rounds=2 reduce-checks=0";
    "fig1-one naive strict=true -> naive answers=6 joins=27 candidates=27 duplicates=15 pruned=0 filtered=0 rounds=2 reduce-checks=0";
    "fig1-one set-reduction strict=false -> set-reduction answers=6 joins=12 candidates=9 duplicates=3 pruned=0 filtered=0 rounds=1 reduce-checks=3";
    "fig1-one set-reduction strict=true -> set-reduction answers=6 joins=12 candidates=9 duplicates=3 pruned=0 filtered=0 rounds=1 reduce-checks=3";
    "fig1-one pushdown strict=false -> pushdown answers=6 joins=27 candidates=27 duplicates=15 pruned=0 filtered=0 rounds=2 reduce-checks=0";
    "fig1-one pushdown strict=true -> pushdown answers=6 joins=27 candidates=27 duplicates=15 pruned=0 filtered=0 rounds=2 reduce-checks=0";
    "fig1-one pushdown-red strict=false -> pushdown-red answers=6 joins=12 candidates=9 duplicates=3 pruned=0 filtered=0 rounds=1 reduce-checks=3";
    "fig1-one pushdown-red strict=true -> pushdown-red answers=6 joins=12 candidates=9 duplicates=3 pruned=0 filtered=0 rounds=1 reduce-checks=3";
    "fig1-one semi-naive strict=false -> semi-naive answers=6 joins=18 candidates=18 duplicates=9 pruned=0 filtered=0 rounds=2 reduce-checks=0";
    "fig1-one semi-naive strict=true -> semi-naive answers=6 joins=18 candidates=18 duplicates=9 pruned=0 filtered=0 rounds=2 reduce-checks=0";
    "fig1-one auto strict=false -> set-reduction answers=6 joins=12 candidates=9 duplicates=3 pruned=0 filtered=0 rounds=1 reduce-checks=3";
    "fig1-one auto strict=true -> set-reduction answers=6 joins=12 candidates=9 duplicates=3 pruned=0 filtered=0 rounds=1 reduce-checks=3";
    "e1-4x4 brute-force strict=false -> brute-force answers=2 joins=247 candidates=0 duplicates=0 pruned=0 filtered=223 rounds=0 reduce-checks=0";
    "e1-4x4 brute-force strict=true -> brute-force answers=2 joins=247 candidates=0 duplicates=0 pruned=0 filtered=223 rounds=0 reduce-checks=0";
    "e1-4x4 naive strict=false -> naive answers=2 joins=569 candidates=569 duplicates=236 pruned=0 filtered=223 rounds=8 reduce-checks=0";
    "e1-4x4 naive strict=true -> naive answers=2 joins=569 candidates=569 duplicates=236 pruned=0 filtered=223 rounds=8 reduce-checks=0";
    "e1-4x4 set-reduction strict=false -> set-reduction answers=2 joins=461 candidates=449 duplicates=146 pruned=0 filtered=223 rounds=6 reduce-checks=24";
    "e1-4x4 set-reduction strict=true -> set-reduction answers=2 joins=461 candidates=449 duplicates=146 pruned=0 filtered=223 rounds=6 reduce-checks=24";
    "e1-4x4 pushdown strict=false -> pushdown answers=2 joins=97 candidates=97 duplicates=8 pruned=67 filtered=0 rounds=4 reduce-checks=0";
    "e1-4x4 pushdown strict=true -> pushdown answers=2 joins=97 candidates=97 duplicates=8 pruned=67 filtered=0 rounds=4 reduce-checks=0";
    "e1-4x4 pushdown-red strict=false -> pushdown-red answers=2 joins=149 candidates=137 duplicates=14 pruned=91 filtered=0 rounds=6 reduce-checks=24";
    "e1-4x4 pushdown-red strict=true -> pushdown-red answers=2 joins=149 candidates=137 duplicates=14 pruned=91 filtered=0 rounds=6 reduce-checks=24";
    "e1-4x4 semi-naive strict=false -> semi-naive answers=2 joins=65 candidates=65 duplicates=4 pruned=47 filtered=0 rounds=4 reduce-checks=0";
    "e1-4x4 semi-naive strict=true -> semi-naive answers=2 joins=65 candidates=65 duplicates=4 pruned=47 filtered=0 rounds=4 reduce-checks=0";
    "e1-4x4 auto strict=false -> semi-naive answers=2 joins=65 candidates=65 duplicates=4 pruned=47 filtered=0 rounds=4 reduce-checks=0";
    "e1-4x4 auto strict=true -> semi-naive answers=2 joins=65 candidates=65 duplicates=4 pruned=47 filtered=0 rounds=4 reduce-checks=0";
    "a1-8x8 brute-force strict=false -> brute-force answers=65025 joins=65519 candidates=0 duplicates=0 pruned=0 filtered=0 rounds=0 reduce-checks=0";
    "a1-8x8 brute-force strict=true -> brute-force answers=65025 joins=65519 candidates=0 duplicates=0 pruned=0 filtered=0 rounds=0 reduce-checks=0";
    "a1-8x8 naive strict=false -> naive answers=65025 joins=85361 candidates=85361 duplicates=17300 pruned=0 filtered=0 rounds=16 reduce-checks=0";
    "a1-8x8 naive strict=true -> naive answers=65025 joins=85361 candidates=85361 duplicates=17300 pruned=0 filtered=0 rounds=16 reduce-checks=0";
    "a1-8x8 set-reduction strict=false -> set-reduction answers=65025 joins=81337 candidates=81281 duplicates=13730 pruned=0 filtered=0 rounds=14 reduce-checks=336";
    "a1-8x8 set-reduction strict=true -> set-reduction answers=65025 joins=81337 candidates=81281 duplicates=13730 pruned=0 filtered=0 rounds=14 reduce-checks=336";
    "a1-8x8 pushdown strict=false -> pushdown answers=65025 joins=85361 candidates=85361 duplicates=17300 pruned=0 filtered=0 rounds=16 reduce-checks=0";
    "a1-8x8 pushdown strict=true -> pushdown answers=65025 joins=85361 candidates=85361 duplicates=17300 pruned=0 filtered=0 rounds=16 reduce-checks=0";
    "a1-8x8 pushdown-red strict=false -> pushdown-red answers=65025 joins=81337 candidates=81281 duplicates=13730 pruned=0 filtered=0 rounds=14 reduce-checks=336";
    "a1-8x8 pushdown-red strict=true -> pushdown-red answers=65025 joins=81337 candidates=81281 duplicates=13730 pruned=0 filtered=0 rounds=14 reduce-checks=336";
    "a1-8x8 semi-naive strict=false -> semi-naive answers=65025 joins=69105 candidates=69105 duplicates=3076 pruned=0 filtered=0 rounds=16 reduce-checks=0";
    "a1-8x8 semi-naive strict=true -> semi-naive answers=65025 joins=69105 candidates=69105 duplicates=3076 pruned=0 filtered=0 rounds=16 reduce-checks=0";
    "a1-8x8 auto strict=false -> semi-naive answers=65025 joins=69161 candidates=69105 duplicates=3076 pruned=0 filtered=0 rounds=16 reduce-checks=336";
    "a1-8x8 auto strict=true -> semi-naive answers=65025 joins=69161 candidates=69105 duplicates=3076 pruned=0 filtered=0 rounds=16 reduce-checks=336";
  ]

let test_pinned_counters () =
  let actual =
    List.concat_map
      (fun (name, ctx, keywords, filter) ->
        let ctx = Lazy.force ctx in
        List.concat_map
          (fun strategy ->
            List.map
              (pinned_line name ctx keywords filter strategy)
              [ false; true ])
          (Eval.all_strategies @ [ Eval.Auto ]))
      pinned_inputs
  in
  Alcotest.(check (list string)) "pinned ledger" pinned_expected actual

let () =
  Alcotest.run "eval"
    [
      ( "query",
        [
          Alcotest.test_case "make normalizes" `Quick test_query_make_normalizes;
          Alcotest.test_case "make rejects empty" `Quick test_query_make_rejects_empty;
          Alcotest.test_case "matches" `Quick test_query_matches;
          Alcotest.test_case "matches_strict" `Quick test_query_matches_strict;
        ] );
      ( "paper",
        [
          Alcotest.test_case "strategies agree" `Quick test_all_strategies_agree_on_paper_doc;
          Alcotest.test_case "answer content" `Quick test_paper_answer_content;
          Alcotest.test_case "fragment of interest" `Quick test_fragment_of_interest_retrieved;
          Alcotest.test_case "irrelevant excluded" `Quick test_irrelevant_fragment_excluded;
          Alcotest.test_case "unfiltered has 7" `Quick test_no_filter_returns_all_seven;
          Alcotest.test_case "empty posting list" `Quick test_empty_posting_list;
          Alcotest.test_case "single keyword" `Quick test_single_keyword_query;
          Alcotest.test_case "strict leaf semantics" `Quick test_strict_leaf_semantics;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "pushdown prunes" `Quick test_pushdown_prunes_more;
          Alcotest.test_case "outcome metadata" `Quick test_outcome_metadata;
          Alcotest.test_case "auto resolves" `Quick test_auto_resolves;
          Alcotest.test_case "empty keyword probes nothing" `Quick
            test_empty_keyword_probes_nothing;
          Alcotest.test_case "strategy_of_string" `Quick test_strategy_of_string;
          Alcotest.test_case "pinned exact counters" `Quick test_pinned_counters;
        ] );
      ( "properties",
        [ strategies_agree_prop; answers_satisfy_semantics_prop; theorem3_per_filter_prop ] );
      ( "generated",
        [
          Alcotest.test_case "end to end" `Quick test_generated_document_end_to_end;
          Alcotest.test_case "large document (25k nodes)" `Slow test_large_document;
        ] );
    ]
