(* The traced run: the workload's sequence replayed in this process on
   one domain, with a span around each call into a layer.

   Each op goes down two paths built from the same files:
   - the server path: [Http.read_request] on the request bytes,
     [Router.handle], [Http.response_to_string] — what a server worker
     runs, minus the socket;
   - the engine path ({!Engine}): decode, [Corpus.run], and the
     write-path steps, each called directly so it can be timed.
   Both start from identical state and see identical ops, so the engine
   path repeats exactly the work hidden inside [Router.handle]; its
   replies double as the correctness check of the server path.  A few
   layers that run inside a single library call (index routing, index
   add/retract, context build, the keyword scan inside [Corpus.run])
   are timed by calling the same public function once more beside the
   engine path: the duplicate does the same work on the same input and
   changes no state that later ops read. *)

module Http = Xfrag_server.Http
module Router = Xfrag_server.Router
module Corpus = Xfrag_core.Corpus
module Context = Xfrag_core.Context
module Exec = Xfrag_core.Exec
module Op_stats = Xfrag_core.Op_stats
module Join_cache = Xfrag_core.Join_cache
module Corpus_index = Xfrag_index.Corpus_index
module Doctree = Xfrag_doctree.Doctree

(* --- spans ------------------------------------------------------------------------ *)

type span = {
  sid : int;
  req : int;  (** op index; -1 for boot *)
  name : string;
  parent : int;  (** [sid] of the enclosing span; -1 for a root *)
  t0 : int;
  t1 : int;
}

type recorder = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;
  mutable req : int;
}

let recorder () = { spans = []; next = 0; stack = []; req = -1 }

let with_span r name f =
  let sid = r.next in
  r.next <- sid + 1;
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- sid :: r.stack;
  let t0 = Clock.now_ns () in
  let close () =
    let t1 = Clock.now_ns () in
    r.stack <- List.tl r.stack;
    r.spans <- { sid; req = r.req; name; parent; t0; t1 } :: r.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let span_json s =
  Xfrag_obs.Json.(
    Obj
      [
        ("sid", Int s.sid);
        ("req", Int s.req);
        ("name", String s.name);
        ("parent", Int s.parent);
        ("start_ns", Int s.t0);
        ("end_ns", Int s.t1);
      ])

let write_spans r path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Xfrag_obs.Json.to_string (span_json s));
          output_char oc '\n')
        (List.rev r.spans))

(* --- accumulators ---------------------------------------------------------------- *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64

let add key v =
  Hashtbl.replace sums key (v +. Option.value ~default:0. (Hashtbl.find_opt sums key))

let addi key v = add key (float_of_int v)

let sum key = Option.value ~default:0. (Hashtbl.find_opt sums key)

(* --- the two paths ---------------------------------------------------------------- *)

(* A router over the state [xfrag serve] boots with (see {!Engine.boot}):
   the same documents, the default shared cache, one shard, and a
   context for the first document. *)
let router_of files ~access_log =
  let docs = Engine.load_documents files in
  let e = Engine.make ~corpus:(Engine.corpus_of docs) in
  ( Router.create ~cache:e.Engine.cache ~corpus:e.Engine.corpus ~shards:1 ~access_log
      (Context.create (snd (List.hd docs))),
    e.Engine.cache )

(* The bytes [Client.request] puts on the wire for this op. *)
let raw_request op =
  let meth, path, body = Drive.http_of_op op in
  let length =
    if body = "" then "" else Printf.sprintf "Content-Length: %d\r\n" (String.length body)
  in
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n%s\r\n%s" meth path length body

let max_body = Xfrag_server.Server.default_config.Xfrag_server.Server.max_body

let parse raw =
  match Http.read_request ~max_body (Http.reader_of_string raw) with
  | Ok req -> req
  | Error _ -> failwith "benchmark request failed to parse"

let untraced_step router raw =
  let resp = Router.handle router (parse raw) in
  ignore (Http.response_to_string resp)

(* The engine path boots like the server, one span per document step,
   and measures the live heap the corpus adds. *)
let traced_boot rec_ files =
  let span name f = with_span rec_ name f in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let docs =
    List.map
      (fun path ->
        let xml = In_channel.with_open_bin path In_channel.input_all in
        let dom = span "xml.parse" (fun () -> Xfrag_xml.Xml_parser.parse_string xml) in
        let tree = span "doctree.build" (fun () -> Doctree.of_xml dom) in
        (Filename.basename path, tree))
      files
  in
  let corpus =
    List.fold_left
      (fun c (name, tree) -> span "corpus.add" (fun () -> Corpus.add c ~name tree))
      Corpus.empty docs
  in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  add "boot.live_kb"
    (float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. 1024.);
  addi "boot.docs" (List.length docs);
  List.iter
    (fun (_, tree) -> ignore (span "context.create" (fun () -> Context.create tree)))
    docs;
  Engine.make ~corpus

let cache_counters c =
  Join_cache.
    [| hits c; misses c; invalidations c; rejected c |]

(* Writes: the index and context steps [Corpus.replace]/[remove] run
   inside, repeated on the index as it was before the op. *)
let write_duplicates rec_ (engine : Engine.t) ~idx0 ~existed op =
  match (op, idx0) with
  | Inputs.Put (name, _), Some idx ->
      let tree = (Corpus.context engine.Engine.corpus name).Context.tree in
      let ctx = with_span rec_ "context.create" (fun () -> Context.create tree) in
      let idx =
        if existed then with_span rec_ "index.remove" (fun () -> Corpus_index.remove_document idx name)
        else idx
      in
      ignore
        (with_span rec_ "index.add" (fun () -> Corpus_index.add_document idx ~name ctx.Context.index))
  | Inputs.Delete name, Some idx ->
      ignore (with_span rec_ "index.remove" (fun () -> Corpus_index.remove_document idx name))
  | (Inputs.Put _ | Inputs.Delete _ | Inputs.Read _), _ -> ()

(* Corpus reads: routing and the per-document keyword scan.  Returns the
   summed posting-list lengths of the query keywords. *)
let read_duplicates rec_ (engine : Engine.t) (r : Exec.Request.t) (o : Corpus.outcome) =
  let keywords = (Exec.Request.to_query r).Xfrag_core.Query.keywords in
  let postings =
    match Corpus.index engine.Engine.corpus with
    | None -> 0
    | Some idx ->
        ignore (with_span rec_ "index.route" (fun () -> Corpus_index.route idx ~keywords));
        List.fold_left
          (fun a k -> a + List.length (Corpus_index.postings idx k))
          0 keywords
  in
  let evaluated =
    List.concat_map (fun sr -> sr.Corpus.shard_docs) o.Corpus.shard_reports
  in
  with_span rec_ "eval.scan" (fun () ->
      List.iter
        (fun d ->
          let ctx = Corpus.context engine.Engine.corpus d.Corpus.doc_name in
          List.iter (fun k -> ignore (Xfrag_core.Selection.keyword ctx k)) keywords)
        evaluated);
  postings

let strategy_key s = "eval.auto." ^ Exec.strategy_name s

(* Counts from the engine path's public results, per read. *)
let record_read_counts (expected : Engine.expected) =
  let stats, answers =
    match expected with
    | Engine.Read (_, o) ->
        (match o.Corpus.routing with
        | Some ri ->
            addi "read.index.candidates" ri.Corpus.candidates;
            addi "read.index.routed_out" ri.Corpus.routed_out;
            addi "read.index.bound_skips" ri.Corpus.bound_skips
        | None -> ());
        addi "read.corpus.merge_ns" o.Corpus.merge_ns;
        List.iter
          (fun sr ->
            List.iter
              (fun d ->
                addi "read.corpus.docs" 1;
                addi "read.corpus.doc_eval_ns" d.Corpus.doc_elapsed_ns;
                addi "read.evals" 1;
                addi (strategy_key d.Corpus.doc_strategy) 1)
              sr.Corpus.shard_docs)
          o.Corpus.shard_reports;
        (o.Corpus.stats, o.Corpus.total_answers)
    | Engine.Write _ -> (Op_stats.create (), 0)
  in
  addi "read.eval.candidates" stats.Op_stats.candidates;
  addi "read.eval.pruned" stats.Op_stats.pruned;
  addi "read.eval.rounds" stats.Op_stats.fixpoint_rounds;
  addi "read.eval.duplicates" stats.Op_stats.duplicates;
  addi "read.eval.answers" answers

type result = {
  metrics : Report.metric list;
  verified : int;  (** measured ops whose server-path reply matched *)
  attempted : int;
  all_verified : bool;  (** warm-up included *)
  checks : (string * bool) list;  (** workload self-checks *)
  context : (string * Xfrag_obs.Json.t) list;
}

let run ~work (inputs : Inputs.t) =
  Engine.isolate ();
  Hashtbl.reset sums;
  let dir = Filename.concat work "docs" in
  let files = Inputs.write_files inputs ~dir in
  let rec_ = recorder () in
  let span name f = with_span rec_ name f in
  let engine = traced_boot rec_ files in
  let access_log = open_out_bin (Filename.concat work "access-traced.log") in
  let router, cache = router_of files ~access_log in
  (* The same sequence through [Router.handle] with no spans, from its
     own fresh state, one op at a time beside the traced path (alternate
     ops go first) so both see the same heap: the tracing overhead's
     baseline. *)
  let plain_log = open_out_bin (Filename.concat work "access-untraced.log") in
  let plain, _ = router_of files ~access_log:plain_log in
  let untraced_ns = ref 0 in
  let untraced raw ~measured =
    let t0 = Clock.now_ns () in
    untraced_step plain raw;
    if measured then untraced_ns := !untraced_ns + (Clock.now_ns () - t0)
  in
  let first_measured = inputs.Inputs.warmup in
  let verified = ref 0 and all_ok = ref true in
  let score_ns = ref 0 and scored = ref 0 in
  let hooks =
    {
      Engine.span = (fun name f -> with_span rec_ name f);
      score_ns =
        (fun ns ->
          score_ns := !score_ns + ns;
          incr scored);
    }
  in
  Array.iteri
    (fun i op ->
      rec_.req <- i;
      let measured = i >= first_measured in
      let kind = if Inputs.is_read op then "read" else "write" in
      let raw = raw_request op in
      if i mod 2 = 0 then untraced raw ~measured;
      let gc0 = Gc.quick_stat () and c0 = cache_counters cache in
      let resp, bytes =
        span "request" (fun () ->
            let req = span "http.parse" (fun () -> parse raw) in
            let resp = span "router.handle" (fun () -> Router.handle router req) in
            (resp, span "http.encode" (fun () -> Http.response_to_string resp)))
      in
      let gc1 = Gc.quick_stat () and c1 = cache_counters cache in
      if i mod 2 = 1 then untraced raw ~measured;
      score_ns := 0;
      scored := 0;
      let idx0 = Corpus.index engine.Engine.corpus in
      let existed =
        match op with
        | Inputs.Put (name, _) | Inputs.Delete name -> Corpus.mem engine.Engine.corpus name
        | Inputs.Read _ -> false
      in
      let expected, postings =
        span "engine" (fun () ->
            let e = Engine.apply ~hooks engine op in
            match e with
            | Engine.Read (r, o) -> (e, read_duplicates rec_ engine r o)
            | Engine.Write _ ->
                write_duplicates rec_ engine ~idx0 ~existed op;
                (e, 0))
      in
      let ok =
        Engine.matches expected ~status:resp.Http.status resp.Http.resp_body
      in
      if not ok then all_ok := false;
      if measured then begin
        if ok then incr verified;
        addi (kind ^ ".ops") 1;
        addi (kind ^ ".gc.minor_words")
          (int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
        addi (kind ^ ".gc.promoted_words")
          (int_of_float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
        addi "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
        if kind = "read" then begin
          addi "read.http.bytes" (String.length bytes);
          addi "read.cache.hits" (c1.(0) - c0.(0));
          addi "read.cache.misses" (c1.(1) - c0.(1));
          addi "read.cache.invalidations" (c1.(2) - c0.(2));
          addi "read.cache.rejected" (c1.(3) - c0.(3));
          addi "read.ranking.score_ns" !score_ns;
          addi "read.ranking.scored" !scored;
          addi "read.index.postings" postings;
          record_read_counts expected
        end
      end)
    inputs.Inputs.ops;
  close_out access_log;
  close_out plain_log;
  write_spans rec_ (Filename.concat work "spans.jsonl");
  (* Span durations, summed per op kind over the measured ops; boot
     spans and every write's parse/build spans feed the per-document
     metrics. *)
  let kind_of = Array.map (fun op -> if Inputs.is_read op then "read" else "write") inputs.Inputs.ops in
  List.iter
    (fun s ->
      let d = float_of_int (s.t1 - s.t0) in
      let per_doc =
        match s.name with
        | "xml.parse" | "doctree.build" | "context.create" -> true
        | _ -> false
      in
      if s.req < 0 then (if per_doc then (add ("doc." ^ s.name) d; add ("doc.n." ^ s.name) 1.))
      else if s.req >= first_measured then begin
        let kind = kind_of.(s.req) in
        add (kind ^ "." ^ s.name) d;
        add (kind ^ ".n." ^ s.name) 1.;
        if per_doc then (add ("doc." ^ s.name) d; add ("doc.n." ^ s.name) 1.)
      end)
    rec_.spans;
  let metrics =
    Report.per_layer ~sum ~untraced_ns:(float_of_int !untraced_ns)
  in
  let checks =
    Checks.workload inputs.Inputs.workload ~engine
      ~routed_out:(int_of_float (sum "read.index.routed_out"))
      ~candidates:(int_of_float (sum "read.index.candidates"))
      ~bound_skips:(int_of_float (sum "read.index.bound_skips"))
  in
  {
    metrics;
    checks;
    context = [ ("writes_by_kind", Engine.tally_json engine) ];
    verified = !verified;
    attempted = Array.length inputs.Inputs.ops - first_measured;
    all_verified = !all_ok;
  }
