module Trace = Xfrag_obs.Trace
module Json = Xfrag_obs.Json

let rf_threshold = 0.25

let rf_probe_limit = 48

let plan_of strategy q =
  let initial = Plan.initial q in
  let fixpoints = Rewrite.power_to_fixpoint initial in
  match (strategy : Exec.strategy) with
  | Brute_force -> initial
  | Naive_fixpoint -> fixpoints
  | Set_reduction -> Rewrite.use_reduction fixpoints
  | Pushdown -> Rewrite.push_selection fixpoints
  | Pushdown_reduction -> Rewrite.push_selection (Rewrite.use_reduction fixpoints)
  | Semi_naive -> Rewrite.push_selection (Rewrite.use_delta fixpoints)
  | Auto -> invalid_arg "Optimizer.plan_of: Auto is not a plan shape"

type decision = {
  strategy : Exec.strategy;
  plan : Plan.t;
  reduced : (string * Frag_set.t) list;
  cache : Join_cache.t option;
}

(* §5's gate.  The probe is real work (every pair of the set is joined),
   so it goes to [stats] like any other operation. *)
let gate ?stats ?cache ctx (q : Query.t) scans : Exec.strategy * _ =
  let am, _ = Filter.decompose q.filter in
  if am <> Filter.True then (Semi_naive, [])
  else if List.exists (fun (_, s) -> Frag_set.cardinal s > rf_probe_limit) scans
  then (Semi_naive, [])
  else
    let reduced =
      List.map (fun (k, s) -> (k, Reduce.reduce ?stats ?cache ctx s)) scans
    in
    let pays (_, original) (_, reduced) =
      Reduce.factor_of ~original ~reduced >= rf_threshold
    in
    ((if List.exists2 pays scans reduced then Set_reduction else Semi_naive), reduced)

let decide ?stats ?(trace = Trace.disabled) ctx (r : Exec.Request.t) q scans =
  let empty = List.find_opt (fun (_, s) -> Frag_set.is_empty s) scans in
  let strategy, reduced =
    match (r.strategy, empty) with
    | Auto, Some _ -> (Exec.Semi_naive, [])
    | Auto, None ->
        Trace.with_span trace "choose-strategy" (fun () ->
            let ((s, _) as choice) = gate ?stats ?cache:r.cache ctx q scans in
            Trace.add_attr trace "chosen" (Json.String (Exec.strategy_name s));
            choice)
    | s, _ -> (s, [])
  in
  let plan =
    match empty with
    | Some (k, _) -> Plan.Scan_keyword k
    | None -> plan_of strategy q
  in
  (* Unpruned strategies carry large intermediate fragments whose O(n)
     probe hashing rivals the join itself (measured: naive lost 4x with
     the cache on even at a 19% hit rate), so only the pruned ones keep
     the cache ([Join_cache.pays]). *)
  let pruned =
    match strategy with
    | Pushdown | Pushdown_reduction | Semi_naive -> true
    | Brute_force | Naive_fixpoint | Set_reduction | Auto -> false
  in
  {
    strategy;
    plan = (if r.strict_leaf then Plan.Strict_leaf plan else plan);
    reduced;
    cache =
      Option.bind r.cache (fun c -> if Join_cache.pays c ~pruned then Some c else None);
  }

let explain ctx (q : Query.t) =
  let scans = List.map (fun k -> (k, Selection.keyword ctx k)) q.keywords in
  let d = decide ctx (Exec.Request.of_query q) q scans in
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "@[<v>query: %a@," Query.pp q;
  Format.fprintf ppf "initial plan: %a@," Plan.pp (Plan.initial q);
  (match d.reduced with
  | [] -> Format.fprintf ppf "reduction factors: (not probed)@,"
  | reduced ->
      Format.fprintf ppf "reduction factors:@,";
      List.iter
        (fun (k, r) ->
          Format.fprintf ppf "  %-20s RF = %.2f@," k
            (Reduce.factor_of ~original:(List.assoc k scans) ~reduced:r))
        reduced);
  Format.fprintf ppf "strategy: %s@," (Exec.strategy_name d.strategy);
  Format.fprintf ppf "plan: %a@," Plan.pp d.plan;
  Format.fprintf ppf "estimated cost: %.1f@," (Cost.cost ctx d.plan);
  Format.fprintf ppf "evaluation tree:@,%a@]@." Plan.pp_tree d.plan;
  Buffer.contents buf
