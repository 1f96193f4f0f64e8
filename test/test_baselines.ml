(* Tests for the comparison baselines: SLCA, ELCA, smallest-subtree
   semantics, tf-idf ranking — including the paper's §1/Figure 8
   effectiveness claims. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Slca = Xfrag_baselines.Slca
module Elca = Xfrag_baselines.Elca
module Smallest = Xfrag_baselines.Smallest_subtree
module Ranking = Xfrag_baselines.Ranking
module Km = Xfrag_baselines.Keyword_matches
module Paper = Xfrag_workload.Paper_doc
module Doctree = Xfrag_doctree.Doctree
module Inverted_index = Xfrag_doctree.Inverted_index

let ctx = lazy (Paper.figure1_context ())

let q_keywords = Paper.query_keywords

(* --- keyword matches scaffolding --- *)

let test_km_build () =
  let c = Lazy.force ctx in
  match Km.build c q_keywords with
  | None -> Alcotest.fail "expected matches"
  | Some km ->
      Alcotest.(check int) "root subtree holds all xquery occurrences" 2
        (Km.subtree_count km 0 0);
      (* keyword order follows the input list: xquery=0, optimization=1 *)
      Alcotest.(check int) "optimization under root" 3 (Km.subtree_count km 1 0);
      Alcotest.(check int) "xquery under n16" 2 (Km.subtree_count km 0 16);
      Alcotest.(check int) "xquery under n79" 0 (Km.subtree_count km 0 79);
      Alcotest.(check bool) "n16 contains all" true (Km.contains_all km 16);
      Alcotest.(check bool) "n79 lacks xquery" false (Km.contains_all km 79)

let test_km_no_match () =
  let c = Lazy.force ctx in
  Alcotest.(check bool) "missing keyword" true (Km.build c [ "xquery"; "zzz" ] = None)

let test_km_candidates () =
  let c = Lazy.force ctx in
  match Km.build c q_keywords with
  | None -> Alcotest.fail "expected matches"
  | Some km ->
      (* Subtrees containing both keywords: n0, n1, n14, n16, n17. *)
      Alcotest.(check (list int)) "candidates" [ 0; 1; 14; 16; 17 ] (Km.candidates km)

(* --- SLCA --- *)

let test_slca_paper () =
  (* §1: the smallest subtree containing both keywords is the paragraph
     n17 — SLCA returns exactly that node. *)
  let c = Lazy.force ctx in
  Alcotest.(check (list int)) "SLCA = {n17}" [ 17 ] (Slca.answer c q_keywords)

let test_slca_misses_fragment_of_interest () =
  (* The effectiveness gap (Figure 8): SLCA's answer unit never equals
     the fragment of interest ⟨n16,n17,n18⟩. *)
  let c = Lazy.force ctx in
  let subtrees = Slca.answer_subtrees c q_keywords in
  let target = Fragment.of_nodes c Paper.fragment_of_interest in
  Alcotest.(check bool) "target absent from SLCA answers" false
    (Frag_set.mem target subtrees);
  (* …whereas the paper's algebra retrieves it. *)
  let answers =
    Eval.answers c (Query.make ~filter:(Filter.Size_at_most 3) q_keywords)
  in
  Alcotest.(check bool) "algebra retrieves it" true (Frag_set.mem target answers)

let test_slca_empty_on_missing_keyword () =
  let c = Lazy.force ctx in
  Alcotest.(check (list int)) "empty" [] (Slca.answer c [ "xquery"; "zzz" ])

let test_slca_multiple () =
  (* Two disjoint sections each containing both keywords: two SLCAs. *)
  let spec id parent label text =
    { Doctree.spec_id = id; spec_parent = parent; spec_label = label; spec_text = text }
  in
  let c =
    Context.create
      (Doctree.of_specs
         [
           spec 0 (-1) "root" "";
           spec 1 0 "sec" "";
           spec 2 1 "par" "alpha";
           spec 3 1 "par" "beta";
           spec 4 0 "sec" "";
           spec 5 4 "par" "alpha beta";
         ])
  in
  Alcotest.(check (list int)) "two slcas" [ 1; 5 ] (Slca.answer c [ "alpha"; "beta" ])

let test_slca_nested_keeps_deepest () =
  let spec id parent text =
    { Doctree.spec_id = id; spec_parent = parent; spec_label = "n"; spec_text = text }
  in
  let c =
    Context.create
      (Doctree.of_specs
         [ spec 0 (-1) "alpha"; spec 1 0 "beta"; spec 2 1 "alpha beta" ])
  in
  (* n2 contains both; its ancestors do too but are not smallest. *)
  Alcotest.(check (list int)) "deepest only" [ 2 ] (Slca.answer c [ "alpha"; "beta" ])

(* --- ELCA --- *)

let test_elca_superset_of_slca () =
  let c = Lazy.force ctx in
  let slca = Slca.answer c q_keywords in
  let elca = Elca.answer c q_keywords in
  List.iter
    (fun v -> Alcotest.(check bool) (string_of_int v) true (List.mem v elca))
    slca

let test_elca_paper () =
  (* n17 is an ELCA (it is the SLCA).  n16 has xquery witness n18 outside
     the candidate child n17, but its only optimization witnesses outside
     n17 is n16 itself — so n16 also qualifies.  Higher ancestors own the
     exclusive witness n81 (optimization) but no exclusive xquery. *)
  let c = Lazy.force ctx in
  Alcotest.(check (list int)) "ELCA" [ 16; 17 ] (Elca.answer c q_keywords)

let test_elca_exclusive_witness () =
  let spec id parent text =
    { Doctree.spec_id = id; spec_parent = parent; spec_label = "n"; spec_text = text }
  in
  let c =
    Context.create
      (Doctree.of_specs
         [
           spec 0 (-1) "beta";
           spec 1 0 "alpha";
           spec 2 0 "";
           spec 3 2 "alpha";
           spec 4 2 "beta";
         ])
  in
  (* n2 contains both (via n3, n4): ELCA.  n0 has exclusive witnesses
     alpha@n1 and beta@n0 outside n2: also ELCA.  SLCA = {n2} only. *)
  Alcotest.(check (list int)) "slca" [ 2 ] (Slca.answer c [ "alpha"; "beta" ]);
  Alcotest.(check (list int)) "elca" [ 0; 2 ] (Elca.answer c [ "alpha"; "beta" ])

(* --- smallest subtree semantics --- *)

let test_smallest_subtree_paper () =
  (* §1's complaint, verbatim: conventional semantics answers ⟨n17⟩. *)
  let c = Lazy.force ctx in
  let answers = Smallest.answer c q_keywords in
  Alcotest.(check int) "one answer" 1 (Frag_set.cardinal answers);
  Alcotest.(check bool) "it is ⟨n17⟩" true
    (Frag_set.mem (Fragment.singleton 17) answers);
  Alcotest.(check bool) "fragment of interest missing" false
    (Frag_set.mem (Fragment.of_nodes c Paper.fragment_of_interest) answers)

let test_smallest_subtree_spanning () =
  let spec id parent text =
    { Doctree.spec_id = id; spec_parent = parent; spec_label = "n"; spec_text = text }
  in
  let c =
    Context.create
      (Doctree.of_specs
         [ spec 0 (-1) ""; spec 1 0 "alpha"; spec 2 0 "beta" ])
  in
  let answers = Smallest.answer c [ "alpha"; "beta" ] in
  Alcotest.(check int) "one answer" 1 (Frag_set.cardinal answers);
  Alcotest.(check bool) "spans via root" true
    (Frag_set.mem (Fragment.of_nodes c [ 0; 1; 2 ]) answers)

(* --- ranking --- *)

let test_idf_orders_rarity () =
  let c = Lazy.force ctx in
  (* xquery (2 nodes) is rarer than optimization (3 nodes); both rarer
     than 'par' (label on dozens of nodes). *)
  Alcotest.(check bool) "xquery > optimization" true
    (Ranking.idf c "xquery" > Ranking.idf c "optimization");
  Alcotest.(check bool) "optimization > par" true
    (Ranking.idf c "optimization" > Ranking.idf c "par");
  Alcotest.(check (float 1e-9)) "unseen keyword" 0.0 (Ranking.idf c "zzz")

let test_ranking_orders_answers () =
  let c = Lazy.force ctx in
  let answers = Eval.answers c (Query.make ~filter:(Filter.Size_at_most 3) q_keywords) in
  let ranked = Ranking.rank c ~keywords:q_keywords answers in
  Alcotest.(check int) "all answers ranked" (Frag_set.cardinal answers)
    (List.length ranked);
  (* Scores are non-increasing. *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.Ranking.score >= b.Ranking.score && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "descending scores" true (monotone ranked);
  (* The keyword-dense paragraph n17 beats keyword-free supersets. *)
  (match ranked with
  | best :: _ ->
      Alcotest.(check bool) "top answer contains both keywords in one node" true
        (Fragment.mem 17 best.Ranking.fragment)
  | [] -> Alcotest.fail "no ranked answers");
  let top2 = Ranking.top_k c ~keywords:q_keywords ~k:2 answers in
  Alcotest.(check int) "top_k" 2 (List.length top2)

(* With a stemming index the scorer counts what the index matched: n2's
   "optimization" matches the probe "optimizations" through their common
   stem "optim", so the one-node fragment ⟨n2⟩ scores tf × idf, both
   read from the index (size 1: no length penalty). *)
let test_stemmed_index_scores () =
  let options = { Xfrag_doctree.Tokenizer.default_options with stem = true } in
  let c =
    Context.of_xml_string ~options
      "<a><p>several optimizations applied</p><q>optimization</q></a>"
  in
  let k = "optimizations" in
  Alcotest.(check bool) "index matches n2" true
    (Inverted_index.node_contains c.Context.index 2 k);
  let tf =
    Inverted_index.term_frequency c.Context.index k (Fragment.nodes (Fragment.singleton 2))
  in
  let idf =
    Inverted_index.idf ~nodes:(Context.size c)
      ~df:(Inverted_index.node_count c.Context.index k)
  in
  Alcotest.(check int) "tf" 1 tf;
  let score = Ranking.score c ~keywords:[ k ] (Fragment.singleton 2) in
  Alcotest.(check bool) "scores > 0" true (score > 0.);
  Alcotest.(check (float 0.)) "tf × idf from the index" (float_of_int tf *. idf) score

(* --- definitional oracles on random documents --- *)

(* Naive SLCA: v is an SLCA iff v's subtree contains every keyword and
   no proper descendant's subtree does — checked by direct scans, no
   clever counting. *)
let naive_slca (ctx : Context.t) keywords =
  let module Index = Xfrag_doctree.Inverted_index in
  let tree = ctx.Context.tree in
  let n = Doctree.size tree in
  let contains_all v =
    List.for_all
      (fun k ->
        let rec scan u =
          u < v + Doctree.subtree_size tree v
          && (Index.node_contains ctx.Context.index u k || scan (u + 1))
        in
        scan v)
      keywords
  in
  List.filter
    (fun v ->
      contains_all v
      && not
           (List.exists
              (fun u -> u <> v && Doctree.is_ancestor tree v u && contains_all u)
              (List.init n Fun.id)))
    (List.init n Fun.id)

let slca_oracle_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"SLCA matches naive definition" ~count:60
       QCheck2.Gen.(pair (1 -- 10_000) (3 -- 40))
       (fun (seed, size) ->
         let ctx = Xfrag_workload.Random_tree.context ~seed ~size in
         let keywords = [ "tok1"; "tok2" ] in
         Slca.answer ctx keywords = naive_slca ctx keywords))

(* Naive ELCA: v qualifies iff, for every keyword, some match node lies
   in v's subtree but outside the subtree of every proper descendant of
   v that itself contains all keywords. *)
let naive_elca (ctx : Context.t) keywords =
  let module Index = Xfrag_doctree.Inverted_index in
  let tree = ctx.Context.tree in
  let n = Doctree.size tree in
  let in_subtree v u = Doctree.is_ancestor_or_self tree v u in
  let contains_all v =
    List.for_all
      (fun k ->
        List.exists
          (fun u -> in_subtree v u && Index.node_contains ctx.Context.index u k)
          (List.init n Fun.id))
      keywords
  in
  let candidate_descendants v =
    List.filter
      (fun u -> u <> v && Doctree.is_ancestor tree v u && contains_all u)
      (List.init n Fun.id)
  in
  List.filter
    (fun v ->
      contains_all v
      &&
      let blockers = candidate_descendants v in
      (* only maximal candidate descendants exclude witnesses *)
      let maximal_blockers =
        List.filter
          (fun u -> not (List.exists (fun w -> w <> u && in_subtree w u) blockers))
          blockers
      in
      List.for_all
        (fun k ->
          List.exists
            (fun u ->
              in_subtree v u
              && Index.node_contains ctx.Context.index u k
              && not (List.exists (fun b -> in_subtree b u) maximal_blockers))
            (List.init n Fun.id))
        keywords)
    (List.init n Fun.id)

let elca_oracle_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"ELCA matches naive definition" ~count:60
       QCheck2.Gen.(pair (1 -- 10_000) (3 -- 40))
       (fun (seed, size) ->
         let ctx = Xfrag_workload.Random_tree.context ~seed ~size in
         let keywords = [ "tok1"; "tok2" ] in
         Elca.answer ctx keywords = naive_elca ctx keywords))

let slca_subset_of_elca_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"SLCA ⊆ ELCA" ~count:100
       QCheck2.Gen.(pair (1 -- 10_000) (3 -- 50))
       (fun (seed, size) ->
         let ctx = Xfrag_workload.Random_tree.context ~seed ~size in
         let keywords = [ "tok0"; "tok3" ] in
         let elca = Elca.answer ctx keywords in
         List.for_all (fun v -> List.mem v elca) (Slca.answer ctx keywords)))

let smallest_subtree_answers_are_minimal_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"smallest-subtree answers contain all keywords" ~count:60
       QCheck2.Gen.(pair (1 -- 10_000) (3 -- 40))
       (fun (seed, size) ->
         let ctx = Xfrag_workload.Random_tree.context ~seed ~size in
         let keywords = [ "tok1"; "tok2" ] in
         Frag_set.for_all
           (fun f ->
             List.for_all (fun k -> Fragment.contains_keyword ctx f k) keywords)
           (Smallest.answer ctx keywords)))

let () =
  Alcotest.run "baselines"
    [
      ( "keyword_matches",
        [
          Alcotest.test_case "build" `Quick test_km_build;
          Alcotest.test_case "no match" `Quick test_km_no_match;
          Alcotest.test_case "candidates" `Quick test_km_candidates;
        ] );
      ( "slca",
        [
          Alcotest.test_case "paper example" `Quick test_slca_paper;
          Alcotest.test_case "misses fragment of interest" `Quick
            test_slca_misses_fragment_of_interest;
          Alcotest.test_case "missing keyword" `Quick test_slca_empty_on_missing_keyword;
          Alcotest.test_case "multiple slcas" `Quick test_slca_multiple;
          Alcotest.test_case "nested keeps deepest" `Quick test_slca_nested_keeps_deepest;
        ] );
      ( "elca",
        [
          Alcotest.test_case "superset of slca" `Quick test_elca_superset_of_slca;
          Alcotest.test_case "paper example" `Quick test_elca_paper;
          Alcotest.test_case "exclusive witness" `Quick test_elca_exclusive_witness;
        ] );
      ( "smallest_subtree",
        [
          Alcotest.test_case "paper example (§1)" `Quick test_smallest_subtree_paper;
          Alcotest.test_case "spanning answer" `Quick test_smallest_subtree_spanning;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "idf" `Quick test_idf_orders_rarity;
          Alcotest.test_case "ordering" `Quick test_ranking_orders_answers;
          Alcotest.test_case "stemmed index scores" `Quick test_stemmed_index_scores;
        ] );
      ( "oracles",
        [
          slca_oracle_prop;
          elca_oracle_prop;
          slca_subset_of_elca_prop;
          smallest_subtree_answers_are_minimal_prop;
        ] );
    ]
