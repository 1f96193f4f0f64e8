(* Workload self-checks: a run fails when its inputs no longer exercise
   what the workload was chosen for. *)

let workload w ~(engine : Engine.t) ~routed_out ~candidates ~bound_skips =
  match w with
  | Inputs.Corpus_topk ->
      [
        ("most documents routed out", routed_out > candidates);
        ("bound skips occur", bound_skips > 0);
      ]
  | Inputs.Corpus_churn ->
      ("create occurs", Engine.tally engine "create" > 0)
      :: List.map
           (fun k ->
             (k ^ " occurs and retires cache partitions", Engine.tally engine (k ^ ".retired") > 0))
           [ "replace"; "delete" ]
