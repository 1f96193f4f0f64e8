module Trace = Xfrag_obs.Trace
module Clock = Xfrag_obs.Clock
module Json = Xfrag_obs.Json

type strategy = Exec.strategy =
  | Brute_force
  | Naive_fixpoint
  | Set_reduction
  | Pushdown
  | Pushdown_reduction
  | Semi_naive
  | Auto

type outcome = {
  answers : Frag_set.t;
  stats : Op_stats.t;
  strategy_used : strategy;
  keyword_node_counts : (string * int) list;
  elapsed_ns : int;
  phase_ns : (string * int) list;
}

let strategy_name = Exec.strategy_name

let strategy_of_string = Exec.strategy_of_string

let all_strategies = Exec.all_strategies

let exec ?(clock = Clock.monotonic) ctx (r : Exec.Request.t) =
  (* One deterministic fault site per evaluation: arming it proves the
     callers' containment (router → 500, corpus → per-doc error). *)
  Xfrag_fault.Fault.Failpoint.hit "eval.request";
  let q = Exec.Request.to_query r in
  let trace = r.Exec.Request.trace in
  let stats = Op_stats.create () in
  let t0 = clock () in
  Trace.with_span trace
    ~attrs:[ ("keywords", Json.String (String.concat " " q.keywords)) ]
    "query"
  @@ fun () ->
  if Trace.is_enabled trace && r.Exec.Request.id <> "" then
    Trace.add_attr trace "request_id" (Json.String r.Exec.Request.id);
  let scans = List.map (fun k -> (k, Selection.keyword ~trace ctx k)) q.keywords in
  let d = Optimizer.decide ~stats ~trace ctx r q scans in
  if Trace.is_enabled trace then
    Trace.add_attr trace "strategy" (Json.String (strategy_name d.strategy));
  let t_scan = clock () in
  let answers =
    Plan.run ~stats ?cache:d.cache ~trace ~deadline:r.Exec.Request.deadline
      ~scans ~reduced:d.reduced ctx d.plan
  in
  let t_end = clock () in
  if Trace.is_enabled trace then
    Trace.add_attr trace "answers" (Json.Int (Frag_set.cardinal answers));
  {
    answers;
    stats;
    strategy_used = d.strategy;
    keyword_node_counts = List.map (fun (k, s) -> (k, Frag_set.cardinal s)) scans;
    elapsed_ns = t_end - t0;
    phase_ns = [ ("scan", t_scan - t0); ("evaluate", t_end - t_scan) ];
  }

let answers ?(strategy = Auto) ?(strict_leaf_semantics = false) ?cache
    ?(deadline = Deadline.none) ctx q =
  (exec ctx
     Exec.Request.(
       of_query q |> with_strategy strategy
       |> with_strict_leaf strict_leaf_semantics
       |> with_cache cache |> with_deadline deadline))
    .answers
