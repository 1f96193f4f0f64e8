(* Tests for the mini relational engine and the relational
   implementation of the fragment algebra ([13]). *)

module Value = Xfrag_relstore.Value
module Schema = Xfrag_relstore.Schema
module Relation = Xfrag_relstore.Relation
module Database = Xfrag_relstore.Database
module Relalg = Xfrag_relstore.Relalg
module Mapping = Xfrag_relstore.Mapping
module Frag_rel = Xfrag_relstore.Frag_rel
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Paper = Xfrag_workload.Paper_doc
module Int_sorted = Xfrag_util.Int_sorted

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

(* --- values and schemas --- *)

let test_value_order () =
  Alcotest.(check bool) "null < int" true (Value.compare Value.Null (Value.Int 0) < 0);
  Alcotest.(check bool) "int < text" true (Value.compare (Value.Int 5) (Value.Text "a") < 0);
  Alcotest.(check int) "int order" (-1) (Value.compare (Value.Int 1) (Value.Int 2));
  Alcotest.(check bool) "hash equal consistent" true
    (Value.hash (Value.Text "x") = Value.hash (Value.Text "x"))

let test_schema () =
  let s = Schema.make [ ("id", Schema.Tint); ("name", Schema.Ttext) ] in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check int) "position" 1 (Schema.position s "name");
  Alcotest.(check bool) "mem" true (Schema.mem s "id");
  Alcotest.(check bool) "not mem" false (Schema.mem s "nope");
  (match Schema.make [ ("a", Schema.Tint); ("a", Schema.Tint) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate-column rejection");
  let r = Schema.rename ~prefix:"t" s in
  Alcotest.(check int) "renamed position" 0 (Schema.position r "t.id")

let test_relation_basics () =
  let s = Schema.make [ ("id", Schema.Tint) ] in
  let r = Relation.of_rows s [ [| Value.Int 1 |]; [| Value.Int 2 |] ] in
  Alcotest.(check int) "cardinality" 2 (Relation.cardinality r);
  (match Relation.insert r [| Value.Int 1; Value.Int 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity mismatch rejection");
  Alcotest.(check int) "column values" 2
    (List.length (Relation.column_values r "id"))

(* --- a small database for operator tests --- *)

let people_db () =
  let db = Database.create () in
  Database.create_table db "person"
    (Schema.make [ ("id", Schema.Tint); ("name", Schema.Ttext); ("age", Schema.Tint) ]);
  Database.create_table db "city"
    (Schema.make [ ("person", Schema.Tint); ("city", Schema.Ttext) ]);
  Database.create_index db ~table:"person" ~column:"id";
  List.iter
    (fun (id, name, age) ->
      Database.insert db "person" [| Value.Int id; Value.Text name; Value.Int age |])
    [ (1, "ada", 36); (2, "bob", 17); (3, "cyd", 63); (4, "dee", 17) ];
  List.iter
    (fun (p, c) -> Database.insert db "city" [| Value.Int p; Value.Text c |])
    [ (1, "paris"); (2, "oslo"); (3, "paris") ];
  db

let test_scan_select () =
  let db = people_db () in
  let r =
    Relalg.eval db
      (Relalg.Select
         ( Relalg.Le (Relalg.Col "p.age", Relalg.Const (Value.Int 17)),
           Relalg.Scan { table = "person"; alias = "p" } ))
  in
  Alcotest.(check int) "two minors" 2 (Relation.cardinality r)

let test_project () =
  let db = people_db () in
  let r =
    Relalg.eval db
      (Relalg.Project ([ "p.name" ], Relalg.Scan { table = "person"; alias = "p" }))
  in
  Alcotest.(check int) "arity 1" 1 (Schema.arity (Relation.schema r));
  Alcotest.(check int) "4 rows" 4 (Relation.cardinality r)

let test_hash_join () =
  let db = people_db () in
  let r =
    Relalg.eval db
      (Relalg.Hash_join
         {
           left = Relalg.Scan { table = "person"; alias = "p" };
           right = Relalg.Scan { table = "city"; alias = "c" };
           on = [ ("p.id", "c.person") ];
         })
  in
  Alcotest.(check int) "three matches" 3 (Relation.cardinality r);
  Alcotest.(check int) "concatenated arity" 5 (Schema.arity (Relation.schema r))

let test_nested_loop_join () =
  let db = people_db () in
  let r =
    Relalg.eval db
      (Relalg.Nested_loop_join
         {
           left = Relalg.Scan { table = "person"; alias = "p" };
           right = Relalg.Scan { table = "person"; alias = "q" };
           pred = Relalg.Lt (Relalg.Col "p.age", Relalg.Col "q.age");
         })
  in
  (* pairs with strictly increasing age: (17,36)×2, (17,63)×2, (36,63) *)
  Alcotest.(check int) "five pairs" 5 (Relation.cardinality r)

let test_distinct_union_orderby_limit () =
  let db = people_db () in
  let ages = Relalg.Project ([ "p.age" ], Relalg.Scan { table = "person"; alias = "p" }) in
  let distinct = Relalg.eval db (Relalg.Distinct ages) in
  Alcotest.(check int) "three distinct ages" 3 (Relation.cardinality distinct);
  let union = Relalg.eval db (Relalg.Union (ages, ages)) in
  Alcotest.(check int) "bag union" 8 (Relation.cardinality union);
  let ordered = Relalg.eval db (Relalg.Order_by ([ "p.age" ], ages)) in
  (match Relation.rows ordered with
  | first :: _ -> Alcotest.(check int) "min first" 17 (Value.to_int first.(0))
  | [] -> Alcotest.fail "empty");
  let limited = Relalg.eval db (Relalg.Limit (2, ages)) in
  Alcotest.(check int) "limit" 2 (Relation.cardinality limited)

let test_group_by () =
  let db = people_db () in
  let r =
    Relalg.eval db
      (Relalg.Group_by
         {
           keys = [ "p.age" ];
           aggregates =
             [
               (Relalg.Count, "", "n");
               (Relalg.Min, "p.id", "min_id");
               (Relalg.Max, "p.id", "max_id");
               (Relalg.Sum, "p.id", "sum_id");
             ];
           input = Relalg.Scan { table = "person"; alias = "p" };
         })
  in
  Alcotest.(check int) "three groups" 3 (Relation.cardinality r);
  (* age 17 group: ids 2 and 4 *)
  let age17 =
    List.find
      (fun row -> Value.equal row.(0) (Value.Int 17))
      (Relation.rows r)
  in
  Alcotest.(check int) "count" 2 (Value.to_int age17.(1));
  Alcotest.(check int) "min" 2 (Value.to_int age17.(2));
  Alcotest.(check int) "max" 4 (Value.to_int age17.(3));
  Alcotest.(check int) "sum" 6 (Value.to_int age17.(4))

let test_group_by_empty_keys () =
  let db = people_db () in
  let r =
    Relalg.eval db
      (Relalg.Group_by
         {
           keys = [];
           aggregates = [ (Relalg.Count, "", "n") ];
           input = Relalg.Scan { table = "person"; alias = "p" };
         })
  in
  Alcotest.(check int) "single row" 1 (Relation.cardinality r);
  Alcotest.(check int) "count all" 4
    (Value.to_int (List.hd (Relation.rows r)).(0))

let test_rename () =
  let db = people_db () in
  let r =
    Relalg.eval db
      (Relalg.Rename
         ( [ "x"; "y"; "z" ],
           Relalg.Scan { table = "person"; alias = "p" } ))
  in
  Alcotest.(check int) "renamed position" 2 (Schema.position (Relation.schema r) "z");
  match
    Relalg.eval db
      (Relalg.Rename ([ "only" ], Relalg.Scan { table = "person"; alias = "p" }))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity mismatch"

let test_index_lookup () =
  let db = people_db () in
  let r =
    Relalg.eval db
      (Relalg.Index_lookup
         { table = "person"; alias = "p"; column = "id"; key = Value.Int 3 })
  in
  Alcotest.(check int) "one row" 1 (Relation.cardinality r);
  let miss =
    Relalg.eval db
      (Relalg.Index_lookup
         { table = "person"; alias = "p"; column = "id"; key = Value.Int 99 })
  in
  Alcotest.(check int) "no rows" 0 (Relation.cardinality miss)

let test_index_maintained_on_insert () =
  let db = people_db () in
  Database.insert db "person" [| Value.Int 9; Value.Text "eve"; Value.Int 30 |];
  Alcotest.(check int) "new row visible via index" 1
    (List.length (Database.index_lookup db ~table:"person" ~column:"id" (Value.Int 9)))

(* --- mapping --- *)

let test_mapping_tables () =
  let db = Mapping.of_doctree (Paper.figure1 ()) in
  Alcotest.(check int) "82 node rows" 82 Mapping.(node_count db);
  Alcotest.(check (list string)) "tables" [ "keyword"; "node" ] (Database.table_names db);
  (* ancestorhood as a relational predicate: n1 is an ancestor of n17 *)
  let r =
    Relalg.eval db
      (Relalg.Select
         ( Relalg.And
             ( Relalg.Lt (Relalg.Col "a.id", Relalg.Col "b.id"),
               Relalg.Le (Relalg.Col "b.id", Relalg.Col "a.last") ),
           Relalg.Nested_loop_join
             {
               left =
                 Relalg.Index_lookup
                   { table = "node"; alias = "a"; column = "id"; key = Value.Int 1 };
               right =
                 Relalg.Index_lookup
                   { table = "node"; alias = "b"; column = "id"; key = Value.Int 17 };
               pred = Relalg.True;
             } ))
  in
  Alcotest.(check int) "ancestor predicate holds" 1 (Relation.cardinality r)

(* --- frag_rel --- *)

let frag_rel () = Frag_rel.of_doctree (Paper.figure1 ())

let test_frag_rel_postings () =
  let t = frag_rel () in
  Alcotest.(check (list int)) "xquery" [ 17; 18 ]
    (Int_sorted.to_list (Frag_rel.postings t "xquery"));
  Alcotest.(check (list int)) "optimization" [ 16; 17; 81 ]
    (Int_sorted.to_list (Frag_rel.postings t "OPTIMIZATION"));
  Alcotest.(check (list int)) "missing" [] (Int_sorted.to_list (Frag_rel.postings t "zzz"))

let test_frag_rel_navigation () =
  let t = frag_rel () in
  Alcotest.(check (option int)) "parent 17" (Some 16) (Frag_rel.parent t 17);
  Alcotest.(check (option int)) "parent 0" None (Frag_rel.parent t 0);
  Alcotest.(check int) "depth 17" 4 (Frag_rel.depth t 17);
  Alcotest.(check (list int)) "path 17-81 (set)" [ 0; 1; 14; 16; 17; 79; 80; 81 ]
    (List.sort compare (Frag_rel.path t 17 81));
  Alcotest.(check (list int)) "path self" [ 17 ] (Frag_rel.path t 17 17)

let test_frag_rel_join () =
  let t = frag_rel () in
  let ctx = Paper.figure1_context () in
  let j =
    Frag_rel.join_fragments t (Fragment.singleton 17) (Fragment.singleton 18)
  in
  Alcotest.(check bool) "⟨16,17,18⟩" true
    (Fragment.equal j (Fragment.of_nodes ctx [ 16; 17; 18 ]))

let test_frag_rel_query_matches_native () =
  let t = frag_rel () in
  let ctx = Paper.figure1_context () in
  let relational = Frag_rel.eval_query ~size_limit:3 t ~keywords:Paper.query_keywords in
  let native =
    Eval.answers ctx (Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords)
  in
  Alcotest.check set_testable "same answers" native relational;
  Alcotest.(check bool) "issued relational queries" true (Frag_rel.queries_issued t > 0)

let test_frag_rel_query_unfiltered () =
  let t = frag_rel () in
  let ctx = Paper.figure1_context () in
  let relational = Frag_rel.eval_query t ~keywords:Paper.query_keywords in
  let native = Eval.answers ctx (Query.make Paper.query_keywords) in
  Alcotest.check set_testable "same answers (no filter)" native relational

let test_frag_rel_random_docs () =
  for seed = 1 to 10 do
    let tree = Xfrag_workload.Random_tree.tree ~seed ~size:30 in
    let t = Frag_rel.of_doctree tree in
    let ctx = Xfrag_core.Context.create tree in
    let keywords = [ Printf.sprintf "id%d" (seed mod 30); "tok3" ] in
    let native =
      match
        Eval.answers ctx (Query.make ~filter:(Filter.Size_at_most 4) keywords)
      with
      | s -> s
      | exception Invalid_argument _ -> (Frag_set.empty ())
    in
    let relational = Frag_rel.eval_query ~size_limit:4 t ~keywords in
    if not (Frag_set.equal native relational) then
      Alcotest.failf "seed %d: relational and native answers differ" seed
  done

(* --- frag_tables: set-at-a-time relational fragment algebra --- *)

module Frag_tables = Xfrag_relstore.Frag_tables

let test_frag_tables_roundtrip () =
  let ctx = Paper.figure1_context () in
  let set =
    Frag_set.of_list
      [ Fragment.of_nodes ctx [ 16; 17; 18 ]; Fragment.singleton 81 ]
  in
  let back = Frag_tables.set_of_relation (Frag_tables.relation_of_set set) in
  Alcotest.check set_testable "round trip" set back

let test_frag_tables_pairwise_matches_native () =
  let tree = Paper.figure1 () in
  let ctx = Paper.figure1_context () in
  let t = Frag_tables.of_doctree tree in
  let s1 =
    Frag_set.of_list [ Fragment.singleton 17; Fragment.singleton 18 ]
  in
  let s2 =
    Frag_set.of_list
      [ Fragment.singleton 16; Fragment.singleton 17; Fragment.singleton 81 ]
  in
  let native = Xfrag_core.Join.pairwise ctx s1 s2 in
  let relational = Frag_tables.pairwise_join t s1 s2 in
  Alcotest.check set_testable "pairwise join" native relational

let test_frag_tables_pairwise_nonsingleton_fragments () =
  let tree = Paper.figure1 () in
  let ctx = Paper.figure1_context () in
  let t = Frag_tables.of_doctree tree in
  let s1 = Frag_set.of_list [ Fragment.of_nodes ctx [ 16; 17 ] ] in
  let s2 =
    Frag_set.of_list [ Fragment.of_nodes ctx [ 79; 80; 81 ]; Fragment.singleton 14 ]
  in
  let native = Xfrag_core.Join.pairwise ctx s1 s2 in
  Alcotest.check set_testable "non-singleton inputs" native
    (Frag_tables.pairwise_join t s1 s2)

let test_frag_tables_empty_operands () =
  let t = Frag_tables.of_doctree (Paper.figure1 ()) in
  let s = Frag_set.of_list [ Fragment.singleton 17 ] in
  Alcotest.(check int) "left empty" 0
    (Frag_set.cardinal (Frag_tables.pairwise_join t (Frag_set.empty ()) s));
  Alcotest.(check int) "right empty" 0
    (Frag_set.cardinal (Frag_tables.pairwise_join t s (Frag_set.empty ())))

let test_frag_tables_fixed_point_matches_native () =
  let tree = Paper.figure1 () in
  let ctx = Paper.figure1_context () in
  let t = Frag_tables.of_doctree tree in
  let s =
    Frag_set.of_list
      [ Fragment.singleton 16; Fragment.singleton 17; Fragment.singleton 81 ]
  in
  Alcotest.check set_testable "F2+" (Xfrag_core.Fixed_point.naive ctx s)
    (Frag_tables.fixed_point t s)

let test_frag_tables_query_matches_native () =
  let tree = Paper.figure1 () in
  let ctx = Paper.figure1_context () in
  let t = Frag_tables.of_doctree tree in
  let native =
    Eval.answers ctx (Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords)
  in
  Alcotest.check set_testable "paper query"
    native
    (Frag_tables.eval_query ~size_limit:3 t ~keywords:Paper.query_keywords)

let frag_tables_random_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"set-at-a-time pairwise join = native" ~count:30
       QCheck2.Gen.(pair (1 -- 10_000) (3 -- 25))
       (fun (seed, size) ->
         let tree = Xfrag_workload.Random_tree.tree ~seed ~size in
         let ctx = Xfrag_core.Context.create tree in
         let t = Frag_tables.of_doctree tree in
         let prng = Xfrag_util.Prng.create (seed * 53) in
         let s1 = Xfrag_workload.Random_tree.fragment_set ctx prng ~max_fragments:3 in
         let s2 = Xfrag_workload.Random_tree.fragment_set ctx prng ~max_fragments:3 in
         Frag_set.equal (Xfrag_core.Join.pairwise ctx s1 s2)
           (Frag_tables.pairwise_join t s1 s2)))

(* --- operator properties on random tables --- *)

let random_db_and_tables prng =
  let db = Database.create () in
  Database.create_table db "r"
    (Schema.make [ ("a", Schema.Tint); ("b", Schema.Tint) ]);
  Database.create_table db "s"
    (Schema.make [ ("c", Schema.Tint); ("d", Schema.Tint) ]);
  let fill name cols =
    let rows = Xfrag_util.Prng.int prng 20 in
    for _ = 1 to rows do
      Database.insert db name
        (Array.init cols (fun _ -> Value.Int (Xfrag_util.Prng.int prng 6)))
    done
  in
  fill "r" 2;
  fill "s" 2;
  db

let sorted_rows rel =
  List.sort compare (List.map Array.to_list (Relation.rows rel))

let hash_join_equals_nested_loop_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"hash join = nested loop (equi-join)" ~count:100
       QCheck2.Gen.(1 -- 100_000)
       (fun seed ->
         let prng = Xfrag_util.Prng.create seed in
         let db = random_db_and_tables prng in
         let left = Relalg.Scan { table = "r"; alias = "r" } in
         let right = Relalg.Scan { table = "s"; alias = "s" } in
         let hash =
           Relalg.eval db (Relalg.Hash_join { left; right; on = [ ("r.a", "s.c") ] })
         in
         let nl =
           Relalg.eval db
             (Relalg.Nested_loop_join
                { left; right; pred = Relalg.Eq (Relalg.Col "r.a", Relalg.Col "s.c") })
         in
         sorted_rows hash = sorted_rows nl))

let select_commutes_with_join_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"single-table selection commutes with join" ~count:100
       QCheck2.Gen.(1 -- 100_000)
       (fun seed ->
         let prng = Xfrag_util.Prng.create seed in
         let db = random_db_and_tables prng in
         let pred = Relalg.Le (Relalg.Col "r.b", Relalg.Const (Value.Int 3)) in
         let join l r = Relalg.Hash_join { left = l; right = r; on = [ ("r.a", "s.c") ] } in
         let scan_r = Relalg.Scan { table = "r"; alias = "r" } in
         let scan_s = Relalg.Scan { table = "s"; alias = "s" } in
         let late = Relalg.eval db (Relalg.Select (pred, join scan_r scan_s)) in
         let early = Relalg.eval db (join (Relalg.Select (pred, scan_r)) scan_s) in
         sorted_rows late = sorted_rows early))

let distinct_idempotent_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"distinct is idempotent" ~count:100
       QCheck2.Gen.(1 -- 100_000)
       (fun seed ->
         let prng = Xfrag_util.Prng.create seed in
         let db = random_db_and_tables prng in
         let scan = Relalg.Scan { table = "r"; alias = "r" } in
         let once = Relalg.eval db (Relalg.Distinct scan) in
         let twice = Relalg.eval db (Relalg.Distinct (Relalg.Distinct scan)) in
         sorted_rows once = sorted_rows twice))

let sql_matches_handwritten_plan_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"SQL compiles to an equivalent plan" ~count:60
       QCheck2.Gen.(1 -- 100_000)
       (fun seed ->
         let prng = Xfrag_util.Prng.create seed in
         let db = random_db_and_tables prng in
         let via_sql =
           match
             Xfrag_relstore.Sql.run db
               "SELECT r.a, s.d FROM r, s WHERE r.a = s.c AND r.b <= 3"
           with
           | Ok rel -> rel
           | Error e -> Alcotest.fail e
         in
         let handwritten =
           Relalg.eval db
             (Relalg.Project
                ( [ "r.a"; "s.d" ],
                  Relalg.Select
                    ( Relalg.Le (Relalg.Col "r.b", Relalg.Const (Value.Int 3)),
                      Relalg.Nested_loop_join
                        {
                          left = Relalg.Scan { table = "r"; alias = "r" };
                          right = Relalg.Scan { table = "s"; alias = "s" };
                          pred = Relalg.Eq (Relalg.Col "r.a", Relalg.Col "s.c");
                        } ) ))
         in
         sorted_rows via_sql = sorted_rows handwritten))

let () =
  Alcotest.run "relstore"
    [
      ( "primitives",
        [
          Alcotest.test_case "value order" `Quick test_value_order;
          Alcotest.test_case "schema" `Quick test_schema;
          Alcotest.test_case "relation" `Quick test_relation_basics;
        ] );
      ( "operators",
        [
          Alcotest.test_case "scan+select" `Quick test_scan_select;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "hash join" `Quick test_hash_join;
          Alcotest.test_case "nested loop join" `Quick test_nested_loop_join;
          Alcotest.test_case "distinct/union/order/limit" `Quick
            test_distinct_union_orderby_limit;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "group by (no keys)" `Quick test_group_by_empty_keys;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "index lookup" `Quick test_index_lookup;
          Alcotest.test_case "index maintenance" `Quick test_index_maintained_on_insert;
        ] );
      ( "mapping",
        [ Alcotest.test_case "tables and ancestor predicate" `Quick test_mapping_tables ] );
      ( "frag_rel",
        [
          Alcotest.test_case "postings" `Quick test_frag_rel_postings;
          Alcotest.test_case "navigation" `Quick test_frag_rel_navigation;
          Alcotest.test_case "join" `Quick test_frag_rel_join;
          Alcotest.test_case "query = native (filtered)" `Quick
            test_frag_rel_query_matches_native;
          Alcotest.test_case "query = native (unfiltered)" `Quick
            test_frag_rel_query_unfiltered;
          Alcotest.test_case "random documents" `Quick test_frag_rel_random_docs;
        ] );
      ( "frag_tables",
        [
          Alcotest.test_case "relation round trip" `Quick test_frag_tables_roundtrip;
          Alcotest.test_case "pairwise = native" `Quick
            test_frag_tables_pairwise_matches_native;
          Alcotest.test_case "non-singleton fragments" `Quick
            test_frag_tables_pairwise_nonsingleton_fragments;
          Alcotest.test_case "empty operands" `Quick test_frag_tables_empty_operands;
          Alcotest.test_case "fixed point = native" `Quick
            test_frag_tables_fixed_point_matches_native;
          Alcotest.test_case "query = native" `Quick test_frag_tables_query_matches_native;
          frag_tables_random_prop;
        ] );
      ( "operator-properties",
        [
          hash_join_equals_nested_loop_prop;
          select_commutes_with_join_prop;
          distinct_idempotent_prop;
          sql_matches_handwritten_plan_prop;
        ] );
    ]
