(* Tests for powerset fragment join (Definition 6) and Theorem 2:
   F1 ⋈* F2 = F1⁺ ⋈ F2⁺. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Join = Xfrag_core.Join
module Powerset = Xfrag_core.Powerset
module Fixed_point = Xfrag_core.Fixed_point
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

let fig3 = lazy (Paper.figure3_context ())

let frag ctx ns = Fragment.of_nodes ctx ns

let test_literal_small () =
  let ctx = Lazy.force fig3 in
  let s1 = Frag_set.of_list [ Fragment.singleton 8 ] in
  let s2 = Frag_set.of_list [ Fragment.singleton 9 ] in
  Alcotest.check set_testable "singletons"
    (Frag_set.of_list [ frag ctx [ 7; 8; 9 ] ])
    (Powerset.literal ctx s1 s2)

let test_literal_produces_more_than_pairwise () =
  (* Figure 3(d) vs 3(c): powerset join yields a superset of pairwise
     join because it also joins multi-element subsets. *)
  let ctx = Lazy.force fig3 in
  let s1 = Frag_set.of_list [ frag ctx [ 4; 5 ]; Fragment.singleton 2 ] in
  let s2 = Frag_set.of_list [ frag ctx [ 7; 9 ]; Fragment.singleton 8 ] in
  let pw = Join.pairwise ctx s1 s2 in
  let ps = Powerset.literal ctx s1 s2 in
  Alcotest.(check bool) "pairwise ⊆ powerset" true (Frag_set.subset pw ps);
  Alcotest.(check bool) "powerset strictly larger" true
    (Frag_set.cardinal ps >= Frag_set.cardinal pw)

let test_literal_guard () =
  let ctx = Lazy.force fig3 in
  let big =
    Frag_set.of_list (List.init 10 (fun i -> Fragment.singleton i))
  in
  match Powerset.literal ~max_set_size:4 ctx big big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected the exponential-enumeration guard to fire"

let test_theorem2_paper_example () =
  (* §4.2: F1 = {f17, f18}, F2 = {f16, f17, f81} over the Figure 1
     document; F1 ⋈* F2 must equal F1⁺ ⋈ F2⁺ and contain exactly the 7
     unique fragments of Table 1. *)
  let ctx = Paper.figure1_context () in
  let s1 = Frag_set.of_list [ Fragment.singleton 17; Fragment.singleton 18 ] in
  let s2 =
    Frag_set.of_list
      [ Fragment.singleton 16; Fragment.singleton 17; Fragment.singleton 81 ]
  in
  let literal = Powerset.literal ctx s1 s2 in
  let theorem2 =
    Join.pairwise ctx (Fixed_point.naive ctx s1) (Fixed_point.naive ctx s2)
  in
  Alcotest.check set_testable "Theorem 2" literal theorem2;
  Alcotest.(check int) "7 unique fragments" 7 (Frag_set.cardinal literal)

let theorem2_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Theorem 2: F1 ⋈* F2 = F1⁺ ⋈ F2⁺" ~count:60
       QCheck2.Gen.(pair (1 -- 10_000) (2 -- 30))
       (fun (seed, size) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 13) in
         let s1 = Random_tree.fragment_set ctx prng ~max_fragments:4 in
         let s2 = Random_tree.fragment_set ctx prng ~max_fragments:4 in
         Frag_set.equal (Powerset.literal ctx s1 s2)
           (Join.pairwise ctx (Fixed_point.naive ctx s1) (Fixed_point.naive ctx s2))))

let theorem2_with_reduction_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"Theorem 2 via reduced fixed point" ~count:60
       QCheck2.Gen.(pair (1 -- 10_000) (2 -- 30))
       (fun (seed, size) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 19) in
         let s1 = Random_tree.fragment_set ctx prng ~max_fragments:4 in
         let s2 = Random_tree.fragment_set ctx prng ~max_fragments:4 in
         Frag_set.equal (Powerset.literal ctx s1 s2)
           (Join.pairwise ctx
              (Fixed_point.with_reduction ctx s1)
              (Fixed_point.with_reduction ctx s2))))

let test_many_literal_single () =
  (* With one operand, the m-ary powerset join degenerates to the fixed
     point of that operand. *)
  let ctx = Lazy.force fig3 in
  let s = Frag_set.of_list [ Fragment.singleton 8; Fragment.singleton 9 ] in
  Alcotest.check set_testable "single operand = fixed point"
    (Fixed_point.naive ctx s)
    (Powerset.many_literal ctx [ s ])

let test_many_literal_three_operands () =
  let ctx = Lazy.force fig3 in
  let s1 = Frag_set.of_list [ Fragment.singleton 2 ] in
  let s2 = Frag_set.of_list [ Fragment.singleton 5 ] in
  let s3 = Frag_set.of_list [ Fragment.singleton 8 ] in
  let result = Powerset.many_literal ctx [ s1; s2; s3 ] in
  (* All singletons: exactly one subset choice each, so one output. *)
  Alcotest.(check int) "one fragment" 1 (Frag_set.cardinal result);
  Alcotest.check set_testable "three-way join"
    (Frag_set.of_list [ Join.fragment_many ctx
                          [ Fragment.singleton 2; Fragment.singleton 5; Fragment.singleton 8 ] ])
    result

let many_theorem2_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"m-ary Theorem 2" ~count:40
       QCheck2.Gen.(pair (1 -- 10_000) (2 -- 25))
       (fun (seed, size) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 23) in
         let sets =
           List.init 3 (fun _ -> Random_tree.fragment_set ctx prng ~max_fragments:3)
         in
         Frag_set.equal
           (Powerset.many_literal ctx sets)
           (match List.map (Fixed_point.naive ctx) sets with
           | [] -> assert false
           | fp :: fps -> List.fold_left (Join.pairwise ctx) fp fps)))

let test_empty_operand_list () =
  let ctx = Lazy.force fig3 in
  match Powerset.many_literal ctx [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for []"

let () =
  Alcotest.run "powerset"
    [
      ( "literal",
        [
          Alcotest.test_case "small" `Quick test_literal_small;
          Alcotest.test_case "superset of pairwise (Fig 3c vs 3d)" `Quick
            test_literal_produces_more_than_pairwise;
          Alcotest.test_case "guard" `Quick test_literal_guard;
          Alcotest.test_case "many: single operand" `Quick test_many_literal_single;
          Alcotest.test_case "many: three operands" `Quick test_many_literal_three_operands;
          Alcotest.test_case "empty operand list" `Quick test_empty_operand_list;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "paper example (§4.2)" `Quick test_theorem2_paper_example;
          theorem2_prop;
          theorem2_with_reduction_prop;
          many_theorem2_prop;
        ] );
    ]
