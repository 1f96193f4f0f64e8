(* Cooperative-cancellation regression tests.

   The contract under test (see Deadline's mli): a deadline is checked
   between whole fragment joins in every strategy's inner loops, so an
   expired deadline aborts promptly — even on a worst-case powerset
   enumeration that would otherwise run for minutes — and a shared
   synchronized join cache is never left with a partial update. *)

module Context = Xfrag_core.Context
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Deadline = Xfrag_core.Deadline
module Join_cache = Xfrag_core.Join_cache
module Clock = Xfrag_obs.Clock

(* A document whose brute-force evaluation is astronomically large but
   stays under the powerset guard: two keywords with 14 single-node
   occurrences each means the literal ⋈* enumerates 2^14 subsets per
   operand and joins the two result sets pairwise — far beyond any
   test budget without a deadline. *)
let worst_case_context () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<doc>";
  for i = 1 to 14 do
    Buffer.add_string buf
      (Printf.sprintf "<sec><p>alpha filler%d</p><p>beta filler%d</p></sec>" i i)
  done;
  Buffer.add_string buf "</doc>";
  Context.of_xml_string (Buffer.contents buf)

let worst_case_query () = Query.make [ "alpha"; "beta" ]

(* --- primitive semantics --- *)

let test_none_never_expires () =
  Alcotest.(check bool) "none" false (Deadline.expired Deadline.none);
  Deadline.check Deadline.none;
  Alcotest.(check bool) "is_none" true (Deadline.is_none Deadline.none);
  Alcotest.(check bool) "after is not none" false
    (Deadline.is_none (Deadline.after 1_000_000_000))

let test_expiry () =
  (* A deterministic clock: each read advances 1000 ns. *)
  let clock = Clock.counter ~start:0 ~step:1000 () in
  let d = Deadline.after ~clock 1500 in
  (* after() read the clock once (t=0), so the limit is 1500. *)
  Alcotest.(check bool) "not yet" false (Deadline.expired d);
  (* reads: 1000 (not > 1500)... 2000 (> 1500). *)
  Alcotest.(check bool) "now expired" true (Deadline.expired d);
  match Deadline.check d with
  | () -> Alcotest.fail "check should raise once expired"
  | exception Deadline.Expired -> ()

let test_remaining_ns () =
  let clock = Clock.counter ~start:0 ~step:100 () in
  let d = Deadline.after ~clock 1000 in
  Alcotest.(check bool) "positive" true (Deadline.remaining_ns d > 0);
  Alcotest.(check int) "none is unbounded" max_int
    (Deadline.remaining_ns Deadline.none)

(* --- aborting a worst-case evaluation --- *)

let ms = 1_000_000

let test_worst_case_aborts_promptly () =
  let ctx = worst_case_context () in
  let q = worst_case_query () in
  let t0 = Clock.monotonic () in
  (match
     Eval.exec ctx
       Exec.Request.(
         of_query q
         |> with_strategy Eval.Brute_force
         |> with_deadline (Deadline.after ms))
   with
  | _ -> Alcotest.fail "a 1ms deadline must abort the powerset enumeration"
  | exception Deadline.Expired -> ());
  let elapsed_ms = (Clock.monotonic () - t0) / ms in
  (* ~1ms deadline, well under 100ms total: the check sits between
     joins, so the abort latency is one join, not one operand. *)
  Alcotest.(check bool)
    (Printf.sprintf "returned in %dms (< 100ms)" elapsed_ms)
    true (elapsed_ms < 100)

let test_all_strategies_abort () =
  let ctx = worst_case_context () in
  let q = worst_case_query () in
  List.iter
    (fun strategy ->
      let name = Eval.strategy_name strategy in
      (* Already-expired deadline: the first check fires, whatever the
         strategy's loop structure is. *)
      let clock = Clock.counter ~start:0 ~step:1000 () in
      let deadline = Deadline.at ~clock 0 in
      match
        Eval.exec ctx
          Exec.Request.(of_query q |> with_strategy strategy |> with_deadline deadline)
      with
      | _ -> Alcotest.failf "%s: expected Deadline.Expired" name
      | exception Deadline.Expired -> ())
    Eval.all_strategies

let test_aborted_run_leaves_cache_consistent () =
  let ctx = worst_case_context () in
  let cache = Join_cache.create ~synchronized:true () in
  (* Abort a brute-force run mid-enumeration with the shared cache... *)
  (match
     Eval.exec ctx
       Exec.Request.(
         of_query (worst_case_query ())
         |> with_strategy Eval.Brute_force
         |> with_deadline (Deadline.after ms)
         |> with_cache (Some cache))
   with
  | _ -> Alcotest.fail "expected abort"
  | exception Deadline.Expired -> ());
  (* ...then answer a feasible query through the same cache: whatever
     the aborted run managed to insert must be whole joins only, so
     answers are identical to a cache-less evaluation. *)
  let q =
    Query.make ~filter:(Filter.Size_at_most 4) [ "alpha"; "beta" ]
  in
  let with_cache = Eval.answers ~strategy:Eval.Semi_naive ~cache ctx q in
  let without = Eval.answers ~strategy:Eval.Semi_naive ctx q in
  Alcotest.(check bool) "same answers through the survivor cache" true
    (Frag_set.equal with_cache without);
  (* And the cache is still coherent for repeated use. *)
  let again = Eval.answers ~strategy:Eval.Semi_naive ~cache ctx q in
  Alcotest.(check bool) "stable on re-evaluation" true
    (Frag_set.equal again without)

let test_completed_run_unaffected_by_deadline () =
  let ctx = Xfrag_workload.Paper_doc.figure1_context () in
  let q = Query.make Xfrag_workload.Paper_doc.query_keywords in
  let with_deadline =
    Eval.answers ~deadline:(Deadline.after (10_000 * ms)) ctx q
  in
  let without = Eval.answers ctx q in
  Alcotest.(check bool) "generous deadline changes nothing" true
    (Frag_set.equal with_deadline without)

let () =
  Alcotest.run "deadline"
    [
      ( "primitives",
        [
          Alcotest.test_case "none never expires" `Quick test_none_never_expires;
          Alcotest.test_case "expiry" `Quick test_expiry;
          Alcotest.test_case "remaining_ns" `Quick test_remaining_ns;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "worst-case powerset aborts promptly" `Quick
            test_worst_case_aborts_promptly;
          Alcotest.test_case "every strategy aborts" `Quick
            test_all_strategies_abort;
          Alcotest.test_case "aborted run leaves cache consistent" `Quick
            test_aborted_run_leaves_cache_consistent;
          Alcotest.test_case "generous deadline is a no-op" `Quick
            test_completed_run_unaffected_by_deadline;
        ] );
    ]
