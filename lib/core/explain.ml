module Clock = Xfrag_obs.Clock

type node = {
  op : string;
  rows : int;
  in_rows : int list;
  self_ns : int;
  counters : (string * int) list;
  children : node list;
}

type report = {
  query : Query.t;
  strategy : Exec.strategy;
  plan : Plan.t;
  estimated_cost : float;
  probe : node option;
  root : node;
  answers : Frag_set.t;
  total_ns : int;
}

let rec total_ns n =
  List.fold_left (fun acc c -> acc + total_ns c) n.self_ns n.children

(* [to_assoc] key order is stable, so positional subtraction is safe. *)
let counter_delta before after =
  List.map2 (fun (_, a) (k, b) -> (k, b - a)) before after
  |> List.filter (fun (_, d) -> d <> 0)

let analyze_request ?(clock = Clock.monotonic) ctx (r : Exec.Request.t) =
  let q = Exec.Request.to_query r in
  let stats = Op_stats.create () in
  let window f =
    let before = Op_stats.to_assoc stats in
    let t0 = clock () in
    let out = f () in
    let t1 = clock () in
    (out, t1 - t0, counter_delta before (Op_stats.to_assoc stats))
  in
  (* The same steps as [Eval.exec], each inside a window. *)
  let scanned =
    List.map (fun k -> (k, window (fun () -> Selection.keyword ctx k))) q.keywords
  in
  let scans = List.map (fun (k, (s, _, _)) -> (k, s)) scanned in
  let d, probe_ns, probe_counters =
    window (fun () -> Optimizer.decide ~stats ctx r q scans)
  in
  (* [Plan.run] finishes a node's inputs right before the node, so its
     children are the last [List.length inputs] nodes finished. *)
  let finished = ref [] in
  let rec take n acc =
    match (n, !finished) with
    | 0, _ | _, [] -> acc
    | n, x :: rest ->
        finished := rest;
        take (n - 1) (x :: acc)
  in
  let observe plan inputs apply =
    let out, self_ns, counters =
      match plan with
      | Plan.Scan_keyword k ->
          (* Scanned above, before the optimizer ran. *)
          let _, ns, counters = List.assoc k scanned in
          (apply (), ns, counters)
      | _ -> window apply
    in
    let children = take (List.length inputs) [] in
    finished :=
      {
        op = Plan.label plan;
        rows = Frag_set.cardinal out;
        in_rows = List.map Frag_set.cardinal inputs;
        self_ns;
        counters;
        children;
      }
      :: !finished;
    out
  in
  let answers =
    Plan.run ~stats ?cache:d.cache ~deadline:r.Exec.Request.deadline ~scans
      ~reduced:d.reduced ~observe ctx d.plan
  in
  let root = List.hd !finished in
  let probe =
    match d.reduced with
    | [] -> None
    | reduced ->
        let rf (k, red) =
          Printf.sprintf "%s=%.2f" k
            (Reduce.factor_of ~original:(List.assoc k scans) ~reduced:red)
        in
        Some
          {
            op =
              Printf.sprintf "\xE2\x8A\x96 probe (RF %s)"
                (String.concat " " (List.map rf reduced));
            rows = List.fold_left (fun n (_, red) -> n + Frag_set.cardinal red) 0 reduced;
            in_rows = List.map (fun (_, s) -> Frag_set.cardinal s) scans;
            self_ns = probe_ns;
            counters = probe_counters;
            children = [];
          }
  in
  {
    query = q;
    strategy = d.strategy;
    plan = d.plan;
    estimated_cost = Cost.cost ctx d.plan;
    probe;
    root;
    answers;
    total_ns = Option.fold ~none:0 ~some:total_ns probe + total_ns root;
  }

let pp_node ppf root =
  let rec go indent n =
    let head = indent ^ n.op in
    Format.fprintf ppf "%-*s rows=%-6d" (max (String.length head + 1) 44) head n.rows;
    (match n.in_rows with
    | [] -> Format.fprintf ppf " %-12s" ""
    | cards ->
        Format.fprintf ppf " in=%-9s"
          (String.concat "x" (List.map string_of_int cards)));
    Format.fprintf ppf " time=%-8s self=%-8s"
      (Clock.ns_to_string (total_ns n))
      (Clock.ns_to_string n.self_ns);
    List.iter (fun (k, d) -> Format.fprintf ppf " %s=+%d" k d) n.counters;
    Format.fprintf ppf "@,";
    List.iter (go (indent ^ "  ")) n.children
  in
  Format.fprintf ppf "@[<v>";
  go "" root;
  Format.fprintf ppf "@]"

let pp ppf r =
  Format.fprintf ppf "@[<v>EXPLAIN ANALYZE@,";
  Format.fprintf ppf "query: %a@," Query.pp r.query;
  Format.fprintf ppf "strategy: %s@," (Exec.strategy_name r.strategy);
  Format.fprintf ppf "plan:  %a@," Plan.pp r.plan;
  Format.fprintf ppf "estimated cost: %.1f@," r.estimated_cost;
  Format.fprintf ppf "actual: total %s, %d answer fragment(s)@,@,"
    (Clock.ns_to_string r.total_ns)
    (Frag_set.cardinal r.answers);
  Option.iter (pp_node ppf) r.probe;
  pp_node ppf r.root;
  Format.fprintf ppf "@]"
