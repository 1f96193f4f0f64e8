(* Metric values, summary statistics and the result line. *)

module Json = Xfrag_obs.Json

type metric = {
  name : string;
  unit_ : string;
  value : float;
  exact : bool;
      (** a work count that repeats exactly at a fixed seed (host
          independent); the rest are timings or allocation figures *)
}

let metric ?(exact = false) name unit_ value = { name; unit_; value; exact }

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* --- per-layer metrics of the traced run ------------------------------------------

   [sum key] reads the traced run's accumulators: span durations in ns
   under ["read.<span>"] / ["write.<span>"] with their counts under
   ["read.n.<span>"], per-document spans under ["doc.<span>"], and
   counts under the keys recorded by {!Traced}. *)

let strategies = List.map Xfrag_core.Exec.strategy_name Xfrag_core.Exec.all_strategies

let per_layer ~sum ~untraced_ns =
  let reads = sum "read.ops" and writes = sum "write.ops" in
  let per_read k = ratio (sum k) reads in
  let mean kind span = ratio (sum (kind ^ "." ^ span)) (sum (kind ^ ".n." ^ span)) in
  let us ns = ns /. 1e3 and ms ns = ns /. 1e6 in
  let docs = sum "read.corpus.docs" in
  let candidates = sum "read.index.candidates" in
  let routed_out = sum "read.index.routed_out" in
  let eval_candidates = sum "read.eval.candidates" in
  let hits = sum "read.cache.hits" and misses = sum "read.cache.misses" in
  let traced_ns = sum "read.request" +. sum "write.request" in
  [
    metric "http.parse_us" "us" (us (per_read "read.http.parse"));
    metric "http.encode_us" "us" (us (per_read "read.http.encode"));
    metric "http.response_bytes" "bytes" (per_read "read.http.bytes");
    metric "exec.decode_us" "us" (us (per_read "read.exec.decode"));
    metric "router.handle_us" "us" (us (per_read "read.router.handle"));
    metric "router.overhead_us" "us"
      (us
         (per_read "read.router.handle" -. per_read "read.exec.decode"
         -. per_read "read.corpus.run"));
    metric "router.write_us" "us" (us (mean "write" "router.handle"));
    metric "index.route_us" "us" (us (per_read "read.index.route"));
    metric ~exact:true "index.postings_per_read" "count" (per_read "read.index.postings");
    metric ~exact:true "index.candidates_per_read" "count" (ratio candidates reads);
    metric ~exact:true "index.routed_out_frac" "fraction"
      (ratio routed_out (candidates +. routed_out));
    metric ~exact:true "index.bound_skips_per_read" "count" (per_read "read.index.bound_skips");
    metric ~exact:true "index.bound_skip_frac" "fraction"
      (ratio (sum "read.index.bound_skips") candidates);
    metric "index.add_us" "us" (us (mean "write" "index.add"));
    metric "index.remove_us" "us" (us (mean "write" "index.remove"));
    metric "corpus.run_ms" "ms" (ms (per_read "read.corpus.run"));
    metric "corpus.coord_us" "us"
      (us
         (per_read "read.corpus.run" -. per_read "read.corpus.doc_eval_ns"
         -. per_read "read.ranking.score_ns" -. per_read "read.corpus.merge_ns"));
    metric "corpus.merge_us" "us" (us (per_read "read.corpus.merge_ns"));
    metric ~exact:true "corpus.docs_evaluated_per_read" "count" (ratio docs reads);
    metric "corpus.replace_ms" "ms" (ms (mean "write" "corpus.replace"));
    metric "corpus.remove_ms" "ms" (ms (mean "write" "corpus.remove"));
    metric "eval.exec_us" "us" (us (ratio (sum "read.corpus.doc_eval_ns") docs));
    metric "eval.scan_us" "us" (us (ratio (sum "read.eval.scan") docs));
    metric ~exact:true "eval.candidates_per_read" "count" (ratio eval_candidates reads);
    metric ~exact:true "eval.pruned_frac" "fraction"
      (ratio (sum "read.eval.pruned") eval_candidates);
    metric ~exact:true "eval.fixpoint_rounds_per_read" "count" (per_read "read.eval.rounds");
    metric ~exact:true "eval.duplicates_per_read" "count" (per_read "read.eval.duplicates");
    metric ~exact:true "eval.answers_per_read" "count" (per_read "read.eval.answers");
  ]
  @ List.map
      (fun s ->
        metric ~exact:true ("eval.auto_frac." ^ s) "fraction"
          (ratio (sum ("eval.auto." ^ s)) (sum "read.evals")))
      strategies
  @ [
      metric ~exact:true "cache.hit_ratio" "fraction" (ratio hits (hits +. misses));
      metric ~exact:true "cache.invalidations_per_read" "count"
        (per_read "read.cache.invalidations");
      metric ~exact:true "cache.rejected_per_read" "count" (per_read "read.cache.rejected");
      metric "cache.retire_us" "us" (us (mean "write" "cache.retire"));
      metric "ranking.score_us_per_read" "us" (us (per_read "read.ranking.score_ns"));
      metric ~exact:true "ranking.scored_per_read" "count" (per_read "read.ranking.scored");
      metric "xml.parse_ms_per_doc" "ms" (ms (mean "doc" "xml.parse"));
      metric "doctree.build_ms_per_doc" "ms" (ms (mean "doc" "doctree.build"));
      metric "context.create_ms_per_doc" "ms" (ms (mean "doc" "context.create"));
      metric "context.live_kb_per_doc" "kB" (ratio (sum "boot.live_kb") (sum "boot.docs"));
      metric "gc.minor_words_per_read" "words" (per_read "read.gc.minor_words");
      metric "gc.promoted_words_per_read" "words" (per_read "read.gc.promoted_words");
      metric "gc.minor_words_per_write" "words" (ratio (sum "write.gc.minor_words") writes);
      metric "gc.major_collections_per_1k_ops" "count"
        (1000. *. ratio (sum "gc.major_collections") (reads +. writes));
      metric "trace.overhead_pct" "%" (100. *. ratio (traced_ns -. untraced_ns) untraced_ns);
    ]

(* --- output -------------------------------------------------------------------- *)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
       ms)

(* The last line of standard output. *)
let print_result ~correct ~attempted ~failed ms =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics_json ms);
          ]))
