(* Tests for fragment join (Definition 4) and pairwise fragment join
   (Definition 5), including the paper's Figure 3 examples and the
   algebraic laws, both on fixed examples and as qcheck properties. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Join = Xfrag_core.Join
module Op_stats = Xfrag_core.Op_stats
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let fragment_testable =
  Alcotest.testable Fragment.pp Fragment.equal

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

let fig3 = lazy (Paper.figure3_context ())

let frag ctx ns = Fragment.of_nodes ctx ns

(* --- Figure 3(b): the paper's worked join example --- *)

let test_figure3_join () =
  let ctx = Lazy.force fig3 in
  let f1 = frag ctx [ 4; 5 ] and f2 = frag ctx [ 7; 9 ] in
  Alcotest.check fragment_testable "⟨n4,n5⟩ ⋈ ⟨n7,n9⟩"
    (frag ctx [ 3; 4; 5; 6; 7; 9 ])
    (Join.fragment ctx f1 f2)

let test_join_single_nodes () =
  let ctx = Lazy.force fig3 in
  Alcotest.check fragment_testable "siblings join through parent"
    (frag ctx [ 7; 8; 9 ])
    (Join.fragment ctx (Fragment.singleton 8) (Fragment.singleton 9));
  Alcotest.check fragment_testable "cousins join through root"
    (frag ctx [ 0; 1; 2; 3; 4; 5 ])
    (Join.fragment ctx (frag ctx [ 1; 2 ]) (frag ctx [ 4; 5 ]))

let test_join_ancestor_descendant () =
  let ctx = Lazy.force fig3 in
  Alcotest.check fragment_testable "ancestor/descendant"
    (frag ctx [ 3; 6; 7 ])
    (Join.fragment ctx (Fragment.singleton 3) (Fragment.singleton 7))

let test_join_overlapping () =
  let ctx = Lazy.force fig3 in
  Alcotest.check fragment_testable "overlapping fragments"
    (frag ctx [ 3; 4; 5; 6 ])
    (Join.fragment ctx (frag ctx [ 3; 4; 5 ]) (frag ctx [ 3; 6 ]))

let test_fragment_many () =
  let ctx = Lazy.force fig3 in
  Alcotest.check fragment_testable "three-way join"
    (frag ctx [ 0; 1; 2; 3; 6; 7; 9 ])
    (Join.fragment_many ctx
       [ Fragment.singleton 2; Fragment.singleton 9; Fragment.singleton 6 ]);
  Alcotest.check_raises "empty list" (Invalid_argument "Join.fragment_many: empty list")
    (fun () -> ignore (Join.fragment_many ctx []))

(* --- Figure 3(c): pairwise fragment join --- *)

let test_figure3_pairwise () =
  let ctx = Lazy.force fig3 in
  let f11 = frag ctx [ 4; 5 ] and f12 = Fragment.singleton 2 in
  let f21 = frag ctx [ 7; 9 ] and f22 = Fragment.singleton 8 in
  let s1 = Frag_set.of_list [ f11; f12 ] and s2 = Frag_set.of_list [ f21; f22 ] in
  let expected =
    Frag_set.of_list
      [
        Join.fragment ctx f11 f21;
        Join.fragment ctx f11 f22;
        Join.fragment ctx f12 f21;
        Join.fragment ctx f12 f22;
      ]
  in
  Alcotest.check set_testable "pairwise = all pairs" expected (Join.pairwise ctx s1 s2)

let test_pairwise_with_empty () =
  let ctx = Lazy.force fig3 in
  let s = Frag_set.of_list [ Fragment.singleton 2 ] in
  Alcotest.(check int) "empty left" 0
    (Frag_set.cardinal (Join.pairwise ctx (Frag_set.empty ()) s));
  Alcotest.(check int) "empty right" 0
    (Frag_set.cardinal (Join.pairwise ctx s (Frag_set.empty ())))

let test_pairwise_dedups () =
  let ctx = Lazy.force fig3 in
  (* n8 ⋈ n9 = n9 ⋈ n8 = ⟨7,8,9⟩; both pairs collapse to one output. *)
  let s = Frag_set.of_list [ Fragment.singleton 8; Fragment.singleton 9 ] in
  let result = Join.pairwise ctx s s in
  Alcotest.(check int) "three distinct outputs" 3 (Frag_set.cardinal result)
  (* ⟨8⟩, ⟨9⟩ (self-joins) and ⟨7,8,9⟩ *)

let test_pairwise_filtered_prunes () =
  let ctx = Lazy.force fig3 in
  let s = Frag_set.of_list [ Fragment.singleton 2; Fragment.singleton 8 ] in
  let stats = Op_stats.create () in
  let result =
    Join.pairwise_filtered ~stats ctx ~keep:(fun f -> Fragment.size f <= 2) s s
  in
  (* Self-joins survive (size 1); the cross join n2 ⋈ n8 spans the whole
     root path (size 6) and is pruned. *)
  Alcotest.(check int) "kept" 2 (Frag_set.cardinal result);
  Alcotest.(check bool) "pruned counted" true (stats.Op_stats.pruned >= 1)

let test_stats_counting () =
  let ctx = Lazy.force fig3 in
  let stats = Op_stats.create () in
  let s = Frag_set.of_list [ Fragment.singleton 8; Fragment.singleton 9 ] in
  ignore (Join.pairwise ~stats ctx s s);
  Alcotest.(check int) "4 joins" 4 stats.Op_stats.fragment_joins;
  Alcotest.(check int) "4 candidates" 4 stats.Op_stats.candidates;
  Alcotest.(check int) "1 duplicate" 1 stats.Op_stats.duplicates

(* --- algebraic laws (Definition 4) as qcheck properties --- *)

let law name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:150 QCheck2.Gen.(pair (1 -- 10_000) (2 -- 60)) f)

let with_random_fragments (seed, size) k =
  let ctx = Random_tree.context ~seed ~size in
  let prng = Prng.create (seed * 31) in
  let f1 = Random_tree.fragment ctx prng in
  let f2 = Random_tree.fragment ctx prng in
  let f3 = Random_tree.fragment ctx prng in
  k ctx f1 f2 f3

let idempotency =
  law "idempotency: f ⋈ f = f" (fun input ->
      with_random_fragments input (fun ctx f1 _ _ ->
          Fragment.equal (Join.fragment ctx f1 f1) f1))

let commutativity =
  law "commutativity: f1 ⋈ f2 = f2 ⋈ f1" (fun input ->
      with_random_fragments input (fun ctx f1 f2 _ ->
          Fragment.equal (Join.fragment ctx f1 f2) (Join.fragment ctx f2 f1)))

let associativity =
  law "associativity: (f1 ⋈ f2) ⋈ f3 = f1 ⋈ (f2 ⋈ f3)" (fun input ->
      with_random_fragments input (fun ctx f1 f2 f3 ->
          Fragment.equal
            (Join.fragment ctx (Join.fragment ctx f1 f2) f3)
            (Join.fragment ctx f1 (Join.fragment ctx f2 f3))))

let absorption =
  law "absorption: f2 ⊆ f1 ⟹ f1 ⋈ f2 = f1" (fun input ->
      with_random_fragments input (fun ctx f1 f2 _ ->
          let joined = Join.fragment ctx f1 f2 in
          (* f2 ⊆ joined always; then joined ⋈ f2 = joined is absorption. *)
          Fragment.equal (Join.fragment ctx joined f2) joined))

let join_contains_inputs =
  law "lemma 1: f ⊆ f ⋈ f'" (fun input ->
      with_random_fragments input (fun ctx f1 f2 _ ->
          let j = Join.fragment ctx f1 f2 in
          Fragment.subfragment f1 j && Fragment.subfragment f2 j))

let join_is_minimal =
  law "minimality: no proper connected subset contains both inputs" (fun input ->
      with_random_fragments input (fun ctx f1 f2 _ ->
          let j = Join.fragment ctx f1 f2 in
          (* Removing any single non-input node from j either disconnects
             it or drops an input: j has no extraneous nodes. *)
          let inputs =
            Xfrag_util.Int_sorted.union (Fragment.nodes f1) (Fragment.nodes f2)
          in
          Xfrag_util.Int_sorted.for_all
            (fun n ->
              Xfrag_util.Int_sorted.mem n inputs
              ||
              let without = Xfrag_util.Int_sorted.remove n (Fragment.nodes j) in
              not (Fragment.is_connected ctx without))
            (Fragment.nodes j)))

(* --- pairwise laws (Definition 5) --- *)

let with_random_sets (seed, size) k =
  let ctx = Random_tree.context ~seed ~size in
  let prng = Prng.create (seed * 17) in
  let s1 = Random_tree.fragment_set ctx prng ~max_fragments:4 in
  let s2 = Random_tree.fragment_set ctx prng ~max_fragments:4 in
  let s3 = Random_tree.fragment_set ctx prng ~max_fragments:3 in
  k ctx s1 s2 s3

let pw_law name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:80 QCheck2.Gen.(pair (1 -- 10_000) (2 -- 40)) f)

let pairwise_commutativity =
  pw_law "pairwise commutativity" (fun input ->
      with_random_sets input (fun ctx s1 s2 _ ->
          Frag_set.equal (Join.pairwise ctx s1 s2) (Join.pairwise ctx s2 s1)))

let pairwise_associativity =
  pw_law "pairwise associativity" (fun input ->
      with_random_sets input (fun ctx s1 s2 s3 ->
          Frag_set.equal
            (Join.pairwise ctx (Join.pairwise ctx s1 s2) s3)
            (Join.pairwise ctx s1 (Join.pairwise ctx s2 s3))))

let pairwise_monotonicity =
  pw_law "pairwise monotonicity: F ⊆ F ⋈ F" (fun input ->
      with_random_sets input (fun ctx s1 _ _ ->
          Frag_set.subset s1 (Join.pairwise ctx s1 s1)))

let pairwise_distributes_over_union =
  pw_law "distributive law over ∪" (fun input ->
      with_random_sets input (fun ctx s1 s2 s3 ->
          Frag_set.equal
            (Join.pairwise ctx s1 (Frag_set.union s2 s3))
            (Frag_set.union (Join.pairwise ctx s1 s2) (Join.pairwise ctx s1 s3))))

let pairwise_not_idempotent_witness () =
  (* The paper notes pairwise join is NOT idempotent; exhibit the
     counterexample: joining two disjoint single nodes creates a new
     fragment, so F ⋈ F ≠ F. *)
  let ctx = Lazy.force fig3 in
  let s = Frag_set.of_list [ Fragment.singleton 8; Fragment.singleton 9 ] in
  Alcotest.(check bool) "F ⋈ F ≠ F" false (Frag_set.equal (Join.pairwise ctx s s) s)

let () =
  Alcotest.run "join"
    [
      ( "figure3",
        [
          Alcotest.test_case "fragment join (Fig 3b)" `Quick test_figure3_join;
          Alcotest.test_case "single-node joins" `Quick test_join_single_nodes;
          Alcotest.test_case "ancestor/descendant" `Quick test_join_ancestor_descendant;
          Alcotest.test_case "overlapping" `Quick test_join_overlapping;
          Alcotest.test_case "fragment_many" `Quick test_fragment_many;
          Alcotest.test_case "pairwise (Fig 3c)" `Quick test_figure3_pairwise;
          Alcotest.test_case "pairwise with empty" `Quick test_pairwise_with_empty;
          Alcotest.test_case "pairwise dedups" `Quick test_pairwise_dedups;
          Alcotest.test_case "pairwise_filtered prunes" `Quick test_pairwise_filtered_prunes;
          Alcotest.test_case "stats counting" `Quick test_stats_counting;
          Alcotest.test_case "pairwise not idempotent" `Quick pairwise_not_idempotent_witness;
        ] );
      ( "laws",
        [
          idempotency;
          commutativity;
          associativity;
          absorption;
          join_contains_inputs;
          join_is_minimal;
        ] );
      ( "pairwise-laws",
        [
          pairwise_commutativity;
          pairwise_associativity;
          pairwise_monotonicity;
          pairwise_distributes_over_union;
        ] );
    ]
