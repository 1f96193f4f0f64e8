module String_map = Map.Make (String)
module Clock = Xfrag_obs.Clock
module Min_heap = Xfrag_util.Min_heap
module Corpus_index = Xfrag_index.Corpus_index

type t = {
  docs : Context.t String_map.t;
  cindex : Corpus_index.t option;
      (* [None] after an index-maintenance failure: the corpus degrades
         to full-scan execution rather than serving a half-built index
         (a missing posting would silently drop answers). *)
}

type hit = { doc : string; fragment : Fragment.t }

type doc_report = {
  doc_name : string;
  doc_nodes : int;
  doc_answers : int;
  doc_elapsed_ns : int;
  doc_strategy : Exec.strategy;
}

type doc_error = {
  err_doc : string;
  err_detail : string;
  err_request_id : string;
}

type shard_report = {
  shard_index : int;
  shard_docs : doc_report list;
  shard_errors : doc_error list;
  shard_nodes : int;
  shard_elapsed_ns : int;
  shard_deadline_expired : bool;
  shard_bound_skips : int;
}

type routing = { candidates : int; routed_out : int; bound_skips : int }

type outcome = {
  hits : (hit * float) list;
  stats : Op_stats.t;
  shard_reports : shard_report list;
  errors : doc_error list;
  merge_ns : int;
  elapsed_ns : int;
  total_answers : int;
  deadline_expired : bool;
  routing : routing option;
}

let empty = { docs = String_map.empty; cindex = Some Corpus_index.empty }

(* Full rebuild from the surviving documents — the middle rung of the
   index-maintenance degradation ladder (incremental retract → rebuild →
   no index).  Each fold step re-passes the [index.build] failpoint, so
   a rebuild failure lands exactly where a failed initial build would:
   the index is dropped and queries full-scan. *)
let rebuild_index docs =
  match
    String_map.fold
      (fun name ctx idx -> Corpus_index.add_document idx ~name ctx.Context.index)
      docs Corpus_index.empty
  with
  | idx -> Some idx
  | exception e ->
      Xfrag_fault.Fault.record "index_build_errors";
      ignore e;
      None

let remove t ~name =
  if not (String_map.mem name t.docs) then t
  else begin
    let docs = String_map.remove name t.docs in
    let cindex =
      match t.cindex with
      | None -> None (* a dropped index stays dropped; full scans *)
      | Some idx -> (
          (* Incremental retract first (one pass over the corpus
             vocabulary, O(corpus vocabulary), no re-tokenizing);
             if it fails — the armed [index.retract] failpoint, or any
             real defect — fall back to rebuilding from scratch rather
             than serving an index that may still list the dead
             document (a stale posting would route queries to a missing
             context). *)
          match Corpus_index.remove_document idx name with
          | idx -> Some idx
          | exception e ->
              Xfrag_fault.Fault.record "index_retract_errors";
              ignore e;
              rebuild_index docs)
    in
    { docs; cindex }
  end

let add t ~name tree =
  (* Add-or-replace: PUT semantics.  Replacing starts with a retract of
     the old version (no-op for fresh names, so a plain add never pays
     for it), then folds the new document in — the old context's
     generation is thereby retired, which is the caller's cue to retire
     its join-cache partition (see [generation]). *)
  let t = remove t ~name in
  let ctx = Context.create tree in
  let cindex =
    match t.cindex with
    | None -> None
    | Some idx -> (
        (* Index maintenance is an optimization, never a correctness
           dependency: if folding this document in fails (the armed
           [index.build] failpoint, or any real defect), drop the whole
           index and let every later run full-scan.  The document itself
           is still added — queries lose speed, not answers. *)
        match Corpus_index.add_document idx ~name ctx.Context.index with
        | idx -> Some idx
        | exception e ->
            Xfrag_fault.Fault.record "index_build_errors";
            ignore e;
            None)
  in
  { docs = String_map.add name ctx t.docs; cindex }

let replace = add

let generation t name =
  match String_map.find_opt name t.docs with
  | Some ctx -> Some ctx.Context.generation
  | None -> None

let mem t name = String_map.mem name t.docs

let of_documents docs =
  List.fold_left (fun t (name, tree) -> add t ~name tree) empty docs

let size t = String_map.cardinal t.docs

let names t = List.map fst (String_map.bindings t.docs)

let context t name =
  match String_map.find_opt name t.docs with
  | Some c -> c
  | None -> raise Not_found

let total_nodes t =
  String_map.fold (fun _ ctx acc -> acc + Context.size ctx) t.docs 0

let index t = t.cindex

let document_frequency t keyword =
  match t.cindex with
  | Some idx -> Corpus_index.document_frequency idx keyword
  | None ->
      String_map.fold
        (fun _ ctx acc ->
          if
            Xfrag_doctree.Inverted_index.node_count ctx.Context.index keyword
            > 0
          then acc + 1
          else acc)
        t.docs 0

let score_bound t ~keywords =
  match t.cindex with
  | None -> None
  | Some idx -> Some (fun doc -> Corpus_index.score_bound idx ~doc ~keywords)

(* Ranking order shared by the per-shard top-k heaps, the k-way merge,
   and the legacy full sort: score descending, then document name, then
   fragment.  Hits are pairwise distinct (unique doc names, sets of
   fragments per doc), so this is a strict total order — which is what
   makes sharded execution bit-identical to sequential: the global top-k
   under a total order is a subset of the union of per-shard top-ks. *)
let cmp_scored (h1, s1) (h2, s2) =
  let c = compare (s2 : float) s1 in
  if c <> 0 then c
  else
    let c = String.compare h1.doc h2.doc in
    if c <> 0 then c else Fragment.compare h1.fragment h2.fragment

(* Documents hash-assign to shards by name (stable across runs and
   corpus mutations elsewhere), then a greedy rebalance moves documents
   from the heaviest to the lightest shard while that strictly shrinks
   the gap — node count is the work proxy.  Each move reduces the
   sum of squared shard weights, so the loop terminates; the cap is
   belt and braces. *)
let plan_shards docs n =
  let bindings = String_map.bindings docs in
  if n <= 1 then [| bindings |]
  else begin
    let buckets = Array.make n [] in
    let weights = Array.make n 0 in
    List.iter
      (fun ((name, ctx) as doc) ->
        let i = Hashtbl.hash name mod n in
        buckets.(i) <- doc :: buckets.(i);
        weights.(i) <- weights.(i) + Context.size ctx)
      bindings;
    let arg_extreme better =
      let best = ref 0 in
      for i = 1 to n - 1 do
        if better weights.(i) weights.(!best) then best := i
      done;
      !best
    in
    let moves = ref (0, (4 * List.length bindings) + 16) in
    let progress = ref true in
    while !progress && fst !moves < snd !moves do
      progress := false;
      let hi = arg_extreme ( > ) and lo = arg_extreme ( < ) in
      if hi <> lo then begin
        (* Smallest movable document that still strictly improves:
           small moves converge toward balance without overshooting. *)
        let candidate =
          List.fold_left
            (fun acc ((_, ctx) as doc) ->
              let s = Context.size ctx in
              if weights.(lo) + s < weights.(hi) then
                match acc with
                | Some (_, best_s) when best_s <= s -> acc
                | _ -> Some (doc, s)
              else acc)
            None buckets.(hi)
        in
        match candidate with
        | None -> ()
        | Some (((name, _) as doc), s) ->
            buckets.(hi) <-
              List.filter (fun (n', _) -> n' <> name) buckets.(hi);
            buckets.(lo) <- doc :: buckets.(lo);
            weights.(hi) <- weights.(hi) - s;
            weights.(lo) <- weights.(lo) + s;
            moves := (fst !moves + 1, snd !moves);
            progress := true
      end
    done;
    Array.map
      (List.sort (fun (a, _) (b, _) -> String.compare a b))
      buckets
  end

type shard_eval = {
  s_report : shard_report;
  s_run : (hit * float) list;  (* sorted best-first by [cmp_scored] *)
  s_stats : Op_stats.t;
  s_answers : int;
}

let eval_shard ~scorer ~bound ~clock (request : Exec.Request.t) idx docs =
  let t0 = clock () in
  let stats = Op_stats.create () in
  let expired = ref false in
  let doc_reports = ref [] in
  let doc_errors = ref [] in
  let total_answers = ref 0 in
  let bound_skips = ref 0 in
  let limit = request.Exec.Request.limit in
  (* Early-termination order: visit high-bound documents first so the
     heap threshold rises as fast as possible and low-bound documents
     become skippable.  Ties keep name order (the input is name-sorted
     and the sort is stable), so the visit order is deterministic. *)
  let docs =
    match bound with
    | None -> docs
    | Some b ->
        List.stable_sort
          (fun (d1, _) (d2, _) -> Float.compare (b d2) (b d1))
          docs
  in
  (* Per-document request: the join cache is kept — its per-generation
     partitions give each document a scoped view, so shard workers warm
     one shared cache instead of thrashing it (the domain-safety gate
     for unsynchronized caches lives in [run]).  Tracing is disabled
     (the span stack is not safe to interleave across domains). *)
  let doc_request = { request with Exec.Request.trace = Xfrag_obs.Trace.disabled } in
  let heap = Min_heap.create ~cmp:(fun a b -> cmp_scored b a) in
  let all = ref [] in
  let add_hit scored =
    match limit with
    | None -> all := scored :: !all
    | Some k when k <= 0 -> ()
    | Some k ->
        if Min_heap.length heap < k then Min_heap.push heap scored
        else (
          match Min_heap.peek heap with
          | Some worst when cmp_scored scored worst < 0 ->
              Min_heap.replace_min heap scored
          | _ -> ())
  in
  (* A document is skippable only when the heap already holds a full
     top-k AND its score bound is *strictly* below the current worst
     kept score: ties break by document name after score, so a document
     whose bound equals the threshold could still displace the worst
     hit.  Strictness is what keeps early termination bit-identical to
     the full scan (property-tested). *)
  let can_skip doc =
    match (bound, limit) with
    | Some b, Some k when k > 0 && Min_heap.length heap >= k -> (
        match Min_heap.peek heap with
        | Some (_, worst_score) -> b doc < worst_score
        | None -> false)
    | _ -> false
  in
  (try
     List.iter
       (fun (doc, ctx) ->
         if Deadline.expired request.Exec.Request.deadline then begin
           expired := true;
           raise_notrace Stdlib.Exit
         end;
         if can_skip doc then incr bound_skips
         else
         (* Evaluate and score into a local buffer, then commit: a
            document that fails anywhere — evaluation, scoring, an armed
            [eval.document] failpoint — contributes nothing, so the
            surviving hits are bit-identical to a run without it. *)
         match
           Xfrag_fault.Fault.Failpoint.hit ~key:doc "eval.document";
           let outcome = Eval.exec ctx doc_request in
           let scored =
             List.map
               (fun fragment -> ({ doc; fragment }, scorer ctx fragment))
               (Frag_set.elements outcome.Eval.answers)
           in
           (outcome, scored)
         with
         | outcome, scored ->
             Op_stats.merge stats outcome.Eval.stats;
             let n = Frag_set.cardinal outcome.Eval.answers in
             total_answers := !total_answers + n;
             List.iter add_hit scored;
             doc_reports :=
               {
                 doc_name = doc;
                 doc_nodes = Context.size ctx;
                 doc_answers = n;
                 doc_elapsed_ns = outcome.Eval.elapsed_ns;
                 doc_strategy = outcome.Eval.strategy_used;
               }
               :: !doc_reports
         | exception Deadline.Expired ->
             (* Partial-result contract: the in-flight document's
                answers are dropped wholesale (a half-evaluated answer
                set would not be bit-identical to any shard plan), the
                shard stops, and the expiry is reported as data — the
                corpus engine never lets [Expired] escape. *)
             expired := true;
             raise_notrace Stdlib.Exit
         | exception e ->
             (* Failure containment: one document blowing up — corrupt
                structure, an adversarial evaluation, an injected fault —
                is data about that document, not a reason to lose the
                other N−1 documents' answers or the process. *)
             Xfrag_fault.Fault.record "doc_errors";
             doc_errors :=
               {
                 err_doc = doc;
                 err_detail = Printexc.to_string e;
                 err_request_id = request.Exec.Request.id;
               }
               :: !doc_errors)
       docs
   with Stdlib.Exit -> ());
  let run =
    match limit with
    | None -> List.sort cmp_scored !all
    | Some _ -> List.sort cmp_scored (Min_heap.to_list heap)
  in
  let nodes = List.fold_left (fun a (_, c) -> a + Context.size c) 0 docs in
  (* Bound ordering visits documents out of name order; the report
     contract is name order regardless. *)
  let by_name field = List.sort (fun a b -> String.compare (field a) (field b)) in
  {
    s_report =
      {
        shard_index = idx;
        shard_docs = by_name (fun d -> d.doc_name) (List.rev !doc_reports);
        shard_errors = by_name (fun e -> e.err_doc) (List.rev !doc_errors);
        shard_nodes = nodes;
        shard_elapsed_ns = clock () - t0;
        shard_deadline_expired = !expired;
        shard_bound_skips = !bound_skips;
      };
    s_run = run;
    s_stats = stats;
    s_answers = !total_answers;
  }

(* K-way merge of per-shard best-first runs: a heap of run heads, pop
   the global best, push its successor.  At most [shards] heads are
   live, and with a limit at most [limit] hits are ever emitted, so the
   merge never materializes more than [shards x limit] scored hits
   (the per-shard runs) plus the output. *)
let merge_runs ~limit runs =
  let heap = Min_heap.create ~cmp:(fun (a, _) (b, _) -> cmp_scored a b) in
  List.iter
    (function [] -> () | head :: rest -> Min_heap.push heap (head, rest))
    runs;
  let out = ref [] in
  let emitted = ref 0 in
  let want_more () =
    match limit with None -> true | Some k -> !emitted < k
  in
  let continue = ref true in
  while !continue && want_more () do
    match Min_heap.pop heap with
    | None -> continue := false
    | Some (best, rest) ->
        out := best :: !out;
        incr emitted;
        (match rest with
        | [] -> ()
        | head :: rest' -> Min_heap.push heap (head, rest'))
  done;
  List.rev !out

let run ?pool ?shards ?routing ?bound ?(scorer = fun _ _ -> 0.)
    ?(clock = Clock.monotonic) t (request : Exec.Request.t) =
  let t0 = clock () in
  let pool = match pool with Some p -> p | None -> Shard_pool.default () in
  let requested =
    match shards with
    | Some n -> max 1 n
    | None -> Shard_pool.parallelism pool
  in
  let routing_enabled = Option.value routing ~default:true in
  (* Routing: intersect the corpus-wide posting lists so only documents
     containing every keyword are dispatched at all.  Any reason it
     cannot apply — routing disabled, index dropped, a request whose
     keywords do not survive normalization (that path keeps its
     documented one-error-per-document behavior) — falls back to the
     full document set. *)
  let routed =
    if not routing_enabled then None
    else
      match t.cindex with
      | None -> None
      | Some idx -> (
          match Exec.Request.to_query request with
          | q -> Some (Corpus_index.route idx ~keywords:q.Query.keywords)
          | exception Invalid_argument _ -> None)
  in
  let docs =
    match routed with
    | None -> t.docs
    | Some candidates ->
        List.fold_left
          (fun acc name ->
            match String_map.find_opt name t.docs with
            | Some ctx -> String_map.add name ctx acc
            | None -> acc)
          String_map.empty candidates
  in
  let routing_info ~bound_skips =
    match routed with
    | None -> None
    | Some _ ->
        let candidates = String_map.cardinal docs in
        Some
          {
            candidates;
            routed_out = String_map.cardinal t.docs - candidates;
            bound_skips;
          }
  in
  if routed <> None && String_map.is_empty docs then
    (* Empty intersection: no document can match; answer without
       touching the shard pool at all. *)
    {
      hits = [];
      stats = Op_stats.create ();
      shard_reports = [];
      errors = [];
      merge_ns = 0;
      elapsed_ns = clock () - t0;
      total_answers = 0;
      deadline_expired = false;
      routing = routing_info ~bound_skips:0;
    }
  else begin
    let n = max 1 (min requested (max 1 (String_map.cardinal docs))) in
    (* Caching across shards: a synchronized cache is striped and safe to
       share between worker domains; an unsynchronized one is only kept
       when there is a single shard (the pool runs one job at a time and
       hands results back through a synchronized channel, so access is
       sequential).  Multi-shard + unsynchronized is the one combination
       that must stay detached. *)
    let request =
      match request.Exec.Request.cache with
      | Some c when n > 1 && not (Join_cache.synchronized c) ->
          Exec.Request.with_cache None request
      | _ -> request
    in
    (* Early termination only composes with routing: the bound's
       soundness is the caller's claim about the scorer, and disabling
       routing ([~routing:false]) must yield a plain full scan. *)
    let bound = if routed = None then None else bound in
    let shard_docs = plan_shards docs n in
    let jobs =
      Array.mapi
        (fun i docs () -> eval_shard ~scorer ~bound ~clock request i docs)
        shard_docs
    in
    let results = Shard_pool.map_all pool jobs in
    let shard_results =
      Array.to_list results
      |> List.map (function Ok r -> r | Error e -> raise e)
    in
    let t_merge = clock () in
    let hits =
      merge_runs ~limit:request.Exec.Request.limit
        (List.map (fun r -> r.s_run) shard_results)
    in
    let merge_ns = clock () - t_merge in
    let stats = Op_stats.create () in
    List.iter (fun r -> Op_stats.merge stats r.s_stats) shard_results;
    {
      hits;
      stats;
      shard_reports = List.map (fun r -> r.s_report) shard_results;
      errors = List.concat_map (fun r -> r.s_report.shard_errors) shard_results;
      merge_ns;
      elapsed_ns = clock () - t0;
      total_answers =
        List.fold_left (fun a r -> a + r.s_answers) 0 shard_results;
      deadline_expired =
        List.exists (fun r -> r.s_report.shard_deadline_expired) shard_results;
      routing =
        routing_info
          ~bound_skips:
            (List.fold_left
               (fun a r -> a + r.s_report.shard_bound_skips)
               0 shard_results);
    }
  end
