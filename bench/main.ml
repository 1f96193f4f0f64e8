(* Benchmark harness: regenerates every table and figure of the paper
   and measures its performance claims.  The paper (VLDB 2006) contains
   no experimental numbers — §4 is a worked example and §3/§5 make
   qualitative claims — so EXPERIMENTS.md pairs each printed table here
   with the corresponding claim.

   Experiments:
     T1  — Table 1 reproduced row by row + strategy timings (§4)
     F3  — fragment-join micro-benchmarks (Figure 3 operations)
     F4  — fragment set reduce: cost and reduction factor (Figure 4, §5)
     E1  — strategy comparison sweep over keyword frequency (§4 claims)
     E2  — filter push-down sweep over β (Theorem 3 claim, §4.3)
     E3  — reduction-factor sweep: path-heavy vs star documents (§4.2)
     E4  — native vs relational backend (§7 / ref [13])
     E5  — effectiveness vs SLCA/ELCA/smallest-subtree (§1, Figure 8)
     C1  — join memoization cache: cached vs uncached per strategy
     S1  — HTTP server load test: qps + tail latency vs concurrency (serve)
     P1  — sharded corpus execution: shard count vs corpus size (§7)
     R1  — corpus index: routed vs full scan, bound-based early termination
     O1  — flight-recorder overhead: /query ns/op, recorder off vs on
     M1  — mutable corpus: incremental retract vs rebuild; mixed R/W load

   Run everything:   dune exec bench/main.exe
   Run a subset:     dune exec bench/main.exe -- t1 e2 …        *)

open Bechamel
open Toolkit
module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Join = Xfrag_core.Join
module Reduce = Xfrag_core.Reduce
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Op_stats = Xfrag_core.Op_stats
module Doctree = Xfrag_doctree.Doctree
module Lca = Xfrag_doctree.Lca
module Docgen = Xfrag_workload.Docgen
module Paper = Xfrag_workload.Paper_doc

(* --- measurement helper ------------------------------------------------ *)

(* One OLS-estimated ns/run for a thunk.  Bechamel runs the thunk until
   the quota expires and regresses time on run count. *)
let time_ns ?(quota = 0.25) name fn =
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with Some [ x ] -> x | Some _ | None -> acc)
    results Float.nan

let pp_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

let header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 74 '=') title (String.make 74 '=')

(* The request a whole-query experiment sends: its query under one
   strategy. *)
let request ?(strategy = Eval.Auto) q =
  Exec.Request.(of_query q |> with_strategy strategy)

let run_counters f =
  let outcome = f () in
  (outcome.Eval.answers, outcome.Eval.stats)

(* --- machine-readable output -------------------------------------------- *)

module Json = Xfrag_obs.Json

(* Rows accumulated by the whole-query experiments and written to
   BENCH_core.json at exit, so scripts can track regressions without
   scraping the printed tables. *)
let bench_rows : Json.t list ref = ref []

let record ~experiment ~scenario ~strategy ~ns fields =
  bench_rows :=
    Json.Obj
      ([
         ("experiment", Json.String experiment);
         ("scenario", Json.String scenario);
         ("strategy", Json.String strategy);
         ("ns_per_op", Json.Float ns);
         (* The host's parallelism budget: numbers measured on a 2-domain
            container and a 32-domain workstation are not comparable, and
            nothing else in the row says which one produced it. *)
         ("domains", Json.Int (Domain.recommended_domain_count ()));
       ]
      @ fields)
    :: !bench_rows

(* Merge-on-write: a partial run (`bench/main.exe e2`) must replace
   only its own experiments' rows in BENCH_core.json, keyed by the
   "experiment" field — earlier behavior overwrote the whole file, so
   alternating partial runs kept dropping every other experiment's
   history (and re-running appended nothing deterministic). *)
(* The output path is stable regardless of where the harness is invoked
   from: XFRAG_BENCH_OUT wins, else walk up from the cwd to the
   directory holding dune-project (the repo root), falling back to the
   cwd.  Writing relative to the cwd silently scattered history files
   around and lost the committed one. *)
let bench_json_path () =
  match Sys.getenv_opt "XFRAG_BENCH_OUT" with
  | Some p when p <> "" -> p
  | _ ->
      let rec up dir =
        if Sys.file_exists (Filename.concat dir "dune-project") then
          Some (Filename.concat dir "BENCH_core.json")
        else
          let parent = Filename.dirname dir in
          if parent = dir then None else up parent
      in
      Option.value (up (Sys.getcwd ())) ~default:"BENCH_core.json"

let write_bench_json () =
  if !bench_rows <> [] then begin
    let path = bench_json_path () in
    let fresh = List.rev !bench_rows in
    let experiment_of = function
      | Json.Obj fields -> (
          match List.assoc_opt "experiment" fields with
          | Some (Json.String e) -> Some e
          | _ -> None)
      | _ -> None
    in
    let fresh_experiments = List.filter_map experiment_of fresh in
    let kept =
      match
        let ic = open_in_bin path in
        let data = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Json.of_string data
      with
      | Ok (Json.Obj fields) -> (
          match List.assoc_opt "rows" fields with
          | Some (Json.List rows) ->
              List.filter
                (fun row ->
                  match experiment_of row with
                  | Some e -> not (List.mem e fresh_experiments)
                  (* Rows without an experiment tag belong to no run of
                     this harness and must never be dropped — losing
                     them silently erased committed history. *)
                  | None -> true)
                rows
          | _ -> [])
      | Ok _ | Error _ -> []
      | exception Sys_error _ -> []
    in
    let doc = Json.Obj [ ("rows", Json.List (kept @ fresh)) ] in
    let oc = open_out path in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %s (%d rows: %d kept + %d new)\n" path
      (List.length kept + List.length fresh)
      (List.length kept) (List.length fresh)
  end

(* --- T1: Table 1 -------------------------------------------------------- *)

let t1 () =
  header "T1: Table 1 - the worked example, reproduced (Figure 1 document, par.4)";
  let ctx = Paper.figure1_context () in
  let q = Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords in
  Printf.printf "%-4s %-26s %-44s %s\n" "row" "inputs" "output fragment" "marks";
  List.iteri
    (fun i (inputs, _) ->
      let row = i + 1 in
      let frags = List.map (fun ns -> Fragment.of_nodes ctx ns) inputs in
      let out = Join.fragment_many ctx frags in
      Printf.printf "%-4d %-26s %-44s %s%s\n" row
        (String.concat " JOIN "
           (List.map (fun f -> Printf.sprintf "f%d" (Fragment.root f)) frags))
        (Format.asprintf "%a" Fragment.pp out)
        (if not (Filter.evaluate ctx q.Query.filter out) then "irrelevant " else "")
        (if row > 7 then "duplicate" else ""))
    Paper.table1_rows;
  let answers = Eval.answers ctx q in
  Printf.printf "\nfinal answer (%d fragments): %s\n"
    (Frag_set.cardinal answers)
    (String.concat ", "
       (List.map (Format.asprintf "%a" Fragment.pp) (Frag_set.elements answers)));
  Printf.printf "\n%-14s %-12s %-10s %s\n" "strategy" "time" "joins" "candidates";
  List.iter
    (fun strategy ->
      let answers, stats = run_counters (fun () -> Eval.exec ctx (request ~strategy q)) in
      let ns =
        time_ns (Eval.strategy_name strategy) (fun () ->
            ignore (Eval.exec ctx (request ~strategy q)))
      in
      record ~experiment:"t1" ~scenario:"figure1 size<=3"
        ~strategy:(Eval.strategy_name strategy) ~ns
        [
          ("joins", Json.Int stats.Op_stats.fragment_joins);
          ("candidates", Json.Int stats.Op_stats.candidates);
          ("answers", Json.Int (Frag_set.cardinal answers));
        ];
      Printf.printf "%-14s %-12s %-10d %d\n"
        (Eval.strategy_name strategy)
        (pp_ns ns) stats.Op_stats.fragment_joins stats.Op_stats.candidates)
    Eval.all_strategies

(* --- F3: join micro-benchmarks ------------------------------------------ *)

let f3 () =
  header "F3: fragment join / pairwise join micro-benchmarks (Figure 3 operations)";
  let cfg = { Docgen.default with seed = 3; sections = 12 } in
  let ctx = Docgen.generate_context cfg in
  let n = Context.size ctx in
  Printf.printf "document: %d nodes\n\n" n;
  let prng = Xfrag_util.Prng.create 99 in
  let random_node () = Xfrag_util.Prng.int prng n in
  let pairs = Array.init 512 (fun _ -> (random_node (), random_node ())) in
  let idx = ref 0 in
  let next_pair () =
    idx := (!idx + 1) land 511;
    pairs.(!idx)
  in
  let rows =
    [
      ( "LCA query (O(1) sparse table)",
        fun () ->
          let a, b = next_pair () in
          ignore (Lca.lca ctx.Context.lca a b) );
      ( "single-node fragment join",
        fun () ->
          let a, b = next_pair () in
          ignore (Join.fragment ctx (Fragment.singleton a) (Fragment.singleton b)) );
      ( "subtree fragment join",
        fun () ->
          let a, b = next_pair () in
          let fa = Fragment.of_sorted_unchecked (Doctree.subtree_nodes ctx.Context.tree a) in
          let fb = Fragment.of_sorted_unchecked (Doctree.subtree_nodes ctx.Context.tree b) in
          ignore (Join.fragment ctx fa fb) );
    ]
  in
  Printf.printf "%-34s %s\n" "operation" "time/op";
  List.iter
    (fun (name, fn) -> Printf.printf "%-34s %s\n" name (pp_ns (time_ns name fn)))
    rows;
  Printf.printf "\npairwise join F JOIN F (single-node sets):\n";
  Printf.printf "%-10s %-12s %s\n" "|F|" "time" "joins";
  List.iter
    (fun size ->
      let nodes = Array.init size (fun _ -> random_node ()) in
      let set =
        Frag_set.of_list (Array.to_list (Array.map Fragment.singleton nodes))
      in
      let stats = Op_stats.create () in
      ignore (Join.pairwise ~stats ctx set set);
      let ns =
        time_ns (Printf.sprintf "pairwise-%d" size) (fun () ->
            ignore (Join.pairwise ctx set set))
      in
      Printf.printf "%-10d %-12s %d\n" (Frag_set.cardinal set) (pp_ns ns)
        stats.Op_stats.fragment_joins)
    [ 4; 8; 16; 32; 64 ]

(* --- F4: fragment set reduce --------------------------------------------- *)

let f4 () =
  header "F4: fragment set reduce - cost and reduction factor (Figure 4, par.5)";
  let ctx4 = Paper.figure4_context () in
  let fig4_set = Frag_set.of_list (List.map Fragment.singleton [ 1; 3; 5; 6; 7 ]) in
  let reduced = Reduce.reduce ctx4 fig4_set in
  Printf.printf "Figure 4: |F| = %d  ->  |reduce(F)| = %d  (RF = %.2f)\n\n"
    (Frag_set.cardinal fig4_set) (Frag_set.cardinal reduced)
    (Reduce.reduction_factor ctx4 fig4_set);
  let ctx = Docgen.generate_context { Docgen.default with seed = 4; sections = 12 } in
  let n = Context.size ctx in
  let prng = Xfrag_util.Prng.create 5 in
  Printf.printf "%-8s %-10s %-8s %-12s %s\n" "|F|" "|reduce|" "RF" "time"
    "subset checks";
  List.iter
    (fun size ->
      let set =
        Frag_set.of_list
          (List.init size (fun _ -> Fragment.singleton (Xfrag_util.Prng.int prng n)))
      in
      let stats = Op_stats.create () in
      let reduced = Reduce.reduce ~stats ctx set in
      let ns =
        time_ns (Printf.sprintf "reduce-%d" size) (fun () ->
            ignore (Reduce.reduce ctx set))
      in
      Printf.printf "%-8d %-10d %-8.2f %-12s %d\n" (Frag_set.cardinal set)
        (Frag_set.cardinal reduced)
        (Reduce.reduction_factor ctx set)
        (pp_ns ns) stats.Op_stats.reduce_subset_checks)
    [ 4; 8; 16; 32; 48 ]

(* --- E1: strategy sweep --------------------------------------------------- *)

let e1 () =
  header
    "E1: strategy comparison over keyword frequency (par.4: brute force is\n\
     impractical; Theorem 2 pipelines scale; pushdown wins with a filter)";
  Printf.printf "query: {needleone, needletwo}, filter size<=4, doc ~190 nodes\n\n";
  Printf.printf "%-12s %-14s %-12s %-10s %-12s %s\n" "postings" "strategy" "time"
    "joins" "candidates" "answers";
  List.iter
    (fun (m1, m2) ->
      let tree =
        Docgen.with_planted_keywords
          { Docgen.default with seed = 100 + m1; sections = 6 }
          ~plant:[ ("needleone", m1); ("needletwo", m2) ]
      in
      let ctx = Context.create tree in
      let q =
        Query.make ~filter:(Filter.Size_at_most 4) [ "needleone"; "needletwo" ]
      in
      List.iter
        (fun strategy ->
          match run_counters (fun () -> Eval.exec ctx (request ~strategy q)) with
          | answers, stats ->
              let label =
                Printf.sprintf "%s-%d-%d" (Eval.strategy_name strategy) m1 m2
              in
              let ns =
                time_ns ~quota:0.2 label (fun () ->
                    ignore (Eval.exec ctx (request ~strategy q)))
              in
              record ~experiment:"e1"
                ~scenario:(Printf.sprintf "postings %dx%d size<=4" m1 m2)
                ~strategy:(Eval.strategy_name strategy) ~ns
                [
                  ("joins", Json.Int stats.Op_stats.fragment_joins);
                  ("candidates", Json.Int stats.Op_stats.candidates);
                  ("answers", Json.Int (Frag_set.cardinal answers));
                ];
              Printf.printf "%-12s %-14s %-12s %-10d %-12d %d\n"
                (Printf.sprintf "%dx%d" m1 m2)
                (Eval.strategy_name strategy)
                (pp_ns ns) stats.Op_stats.fragment_joins stats.Op_stats.candidates
                (Frag_set.cardinal answers)
          | exception Invalid_argument _ ->
              Printf.printf "%-12s %-14s %-12s (exponential guard)\n"
                (Printf.sprintf "%dx%d" m1 m2)
                (Eval.strategy_name strategy) "-")
        (if m1 * m2 <= 64 then Eval.all_strategies
         else
           [ Eval.Naive_fixpoint; Eval.Set_reduction; Eval.Pushdown;
             Eval.Pushdown_reduction; Eval.Semi_naive ]);
      print_newline ())
    [ (2, 2); (4, 4); (6, 6); (8, 8); (12, 12) ]

(* --- E2: push-down sweep --------------------------------------------------- *)

let e2 () =
  header
    "E2: filter push-down over beta (Theorem 3, par.4.3: selection ahead of\n\
     join avoids unnecessary join computation)";
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 17; sections = 8 }
      ~plant:[ ("needleone", 9); ("needletwo", 9) ]
  in
  let ctx = Context.create tree in
  Printf.printf "doc: %d nodes, postings 9x9\n\n" (Context.size ctx);
  Printf.printf "%-8s %-14s %-12s %-10s %-10s %s\n" "beta" "strategy" "time" "joins"
    "pruned" "answers";
  List.iter
    (fun beta ->
      let filter =
        if beta = max_int then Filter.True else Filter.Size_at_most beta
      in
      let q = Query.make ~filter [ "needleone"; "needletwo" ] in
      List.iter
        (fun strategy ->
          let answers, stats = run_counters (fun () -> Eval.exec ctx (request ~strategy q)) in
          let label =
            Printf.sprintf "%s-b%d" (Eval.strategy_name strategy)
              (if beta = max_int then 0 else beta)
          in
          let ns = time_ns label (fun () -> ignore (Eval.exec ctx (request ~strategy q))) in
          record ~experiment:"e2"
            ~scenario:
              (Printf.sprintf "postings 9x9 beta=%s"
                 (if beta = max_int then "none" else string_of_int beta))
            ~strategy:(Eval.strategy_name strategy) ~ns
            [
              ("joins", Json.Int stats.Op_stats.fragment_joins);
              ("pruned", Json.Int stats.Op_stats.pruned);
              ("answers", Json.Int (Frag_set.cardinal answers));
            ];
          Printf.printf "%-8s %-14s %-12s %-10d %-10d %d\n"
            (if beta = max_int then "none" else string_of_int beta)
            (Eval.strategy_name strategy)
            (pp_ns ns) stats.Op_stats.fragment_joins stats.Op_stats.pruned
            (Frag_set.cardinal answers))
        [ Eval.Naive_fixpoint; Eval.Pushdown ];
      print_newline ())
    [ 2; 3; 4; 6; 8 ]

(* --- E3: reduction factor sweep -------------------------------------------- *)

let e3 () =
  header
    "E3: set-reduction benefit vs reduction factor (par.4.2: worthwhile when\n\
     the sets reduce by a large factor)";
  (* Chain documents put keyword nodes on each other's root paths (high
     RF); star documents make every keyword node independent (RF 0). *)
  let chain_doc n =
    Doctree.of_specs
      (List.init n (fun id ->
           {
             Doctree.spec_id = id;
             spec_parent = (if id = 0 then -1 else id - 1);
             spec_label = "n";
             spec_text = (if id mod 4 = 0 then "needle" else "");
           }))
  in
  let star_doc n =
    Doctree.of_specs
      (List.init n (fun id ->
           {
             Doctree.spec_id = id;
             spec_parent = (if id = 0 then -1 else 0);
             spec_label = "n";
             spec_text = (if id > 0 && id mod 4 = 0 then "needle" else "");
           }))
  in
  Printf.printf "%-10s %-8s %-8s %-16s %-12s %-12s %s\n" "shape" "|F|" "RF"
    "strategy" "time" "joins" "rounds";
  List.iter
    (fun (shape, tree) ->
      let ctx = Context.create tree in
      let set = Xfrag_core.Selection.keyword ctx "needle" in
      let rf = Reduce.reduction_factor ctx set in
      let strategies =
        [
          ( "naive",
            fun stats s -> Xfrag_core.Fixed_point.naive ?stats ctx s );
          ( "set-reduction",
            fun stats s -> Xfrag_core.Fixed_point.with_reduction ?stats ~checked:false ctx s );
        ]
      in
      List.iter
        (fun (name, fixed_point) ->
          let stats = Op_stats.create () in
          ignore (fixed_point (Some stats) set);
          let ns =
            time_ns
              (Printf.sprintf "%s-%s" shape name)
              (fun () -> ignore (fixed_point None set))
          in
          Printf.printf "%-10s %-8d %-8.2f %-16s %-12s %-12d %d\n" shape
            (Frag_set.cardinal set) rf name (pp_ns ns) stats.Op_stats.fragment_joins
            stats.Op_stats.fixpoint_rounds)
        strategies)
    [ ("chain", chain_doc 41); ("star", star_doc 41) ]

(* --- E4: relational backend ------------------------------------------------ *)

let e4 () =
  header
    "E4: native vs relational backend (par.7 / [13]: the model can run on a\n\
     relational platform)";
  let docs =
    [
      ("figure1", Paper.figure1 (), Paper.query_keywords, 3);
      ( "generated",
        Docgen.with_planted_keywords
          { Docgen.default with seed = 23; sections = 6 }
          ~plant:[ ("needleone", 5); ("needletwo", 5) ],
        [ "needleone"; "needletwo" ],
        4 );
    ]
  in
  Printf.printf "%-10s %-12s %-12s %-10s %s\n" "doc" "backend" "time" "answers"
    "rel. queries";
  List.iter
    (fun (name, tree, keywords, beta) ->
      let ctx = Context.create tree in
      let q = Query.make ~filter:(Filter.Size_at_most beta) keywords in
      let native = Eval.answers ~strategy:Eval.Pushdown ctx q in
      let ns_native =
        time_ns (name ^ "-native") (fun () ->
            ignore (Eval.answers ~strategy:Eval.Pushdown ctx q))
      in
      Printf.printf "%-10s %-12s %-12s %-10d %s\n" name "native" (pp_ns ns_native)
        (Frag_set.cardinal native) "-";
      let rel = Xfrag_relstore.Frag_rel.of_doctree tree in
      let answers = Xfrag_relstore.Frag_rel.eval_query ~size_limit:beta rel ~keywords in
      let queries0 = Xfrag_relstore.Frag_rel.queries_issued rel in
      let ns_rel =
        time_ns (name ^ "-relational") (fun () ->
            ignore (Xfrag_relstore.Frag_rel.eval_query ~size_limit:beta rel ~keywords))
      in
      assert (Frag_set.equal native answers);
      Printf.printf "%-10s %-12s %-12s %-10d %d per eval\n" name "relational"
        (pp_ns ns_rel)
        (Frag_set.cardinal answers) queries0;
      (* Set-at-a-time variant: fragment sets live in (fid, node) tables
         and the pairwise join is pure relational algebra. *)
      let tab = Xfrag_relstore.Frag_tables.of_doctree tree in
      let answers_tab =
        Xfrag_relstore.Frag_tables.eval_query ~size_limit:beta tab ~keywords
      in
      assert (Frag_set.equal native answers_tab);
      let ns_tab =
        time_ns (name ^ "-set-at-a-time") (fun () ->
            ignore (Xfrag_relstore.Frag_tables.eval_query ~size_limit:beta tab ~keywords))
      in
      Printf.printf "%-10s %-12s %-12s %-10d %s\n" name "set-at-time" (pp_ns ns_tab)
        (Frag_set.cardinal answers_tab) "-")
    docs

(* --- E5: effectiveness ------------------------------------------------------ *)

let e5 () =
  header
    "E5: effectiveness vs smallest-subtree semantics (par.1, Figures 2 and 8:\n\
     keyword-split patterns and the fragments each semantics retrieves)";
  let module Topics = Xfrag_workload.Topics in
  let module Metrics = Xfrag_baselines.Metrics in
  let seeds = [ 31; 32; 33; 34; 35; 36; 37; 38 ] in
  Printf.printf
    "per pattern: %d generated articles; recall@exact = fraction of trials\n\
     whose intended target fragment is retrieved; P/R/F1 at Jaccard >= 1.0\n\n"
    (List.length seeds);
  Printf.printf "%-20s %-30s %-8s %-7s %-7s %-7s\n" "pattern" "semantics" "recall"
    "P" "R" "F1";
  List.iter
    (fun pattern ->
      let topics = Topics.generate_many ~seeds pattern in
      (* β per pattern = the intended target's size: the loosest filter
         that can still call the answer "restrained". *)
      let beta =
        match Topics.generate ~seed:31 pattern with
        | Some t -> List.length t.Topics.target
        | None -> 3
      in
      let systems =
        [
          ( Printf.sprintf "algebra (beta=%d)" beta,
            fun ctx keywords ->
              Eval.answers ctx (Query.make ~filter:(Filter.Size_at_most beta) keywords) );
          ("SLCA subtrees [20]", fun ctx k -> Xfrag_baselines.Slca.answer_subtrees ctx k);
          ("ELCA subtrees [7]", fun ctx k -> Xfrag_baselines.Elca.answer_subtrees ctx k);
          ( "smallest subtree",
            fun ctx k -> Xfrag_baselines.Smallest_subtree.answer ctx k );
        ]
      in
      List.iter
        (fun (name, retrieve) ->
          let hits = ref 0 in
          let p = ref 0.0 and r = ref 0.0 and f1 = ref 0.0 in
          List.iter
            (fun (t : Topics.topic) ->
              let ctx = Context.create t.Topics.tree in
              let target = Fragment.of_nodes ctx t.Topics.target in
              let retrieved = retrieve ctx t.Topics.keywords in
              if Frag_set.mem target retrieved then incr hits;
              let s =
                Metrics.evaluate ~retrieved ~targets:(Frag_set.singleton target) ()
              in
              p := !p +. s.Metrics.precision;
              r := !r +. s.Metrics.recall;
              f1 := !f1 +. s.Metrics.f1)
            topics;
          let n = float_of_int (List.length topics) in
          Printf.printf "%-20s %-30s %d/%-6d %-7.2f %-7.2f %-7.2f\n"
            (Topics.pattern_name pattern) name !hits (List.length topics) (!p /. n)
            (!r /. n) (!f1 /. n))
        systems;
      print_newline ())
    Topics.all_patterns

(* --- E6: document-size scaling ----------------------------------------------- *)

let e6 () =
  header
    "E6: scaling in document size (index construction and query latency;\n\
     the paper targets 'a very large collection of XML documents', par.7)";
  Printf.printf "%-10s %-14s %-14s %-14s %s\n" "nodes" "parse+build" "ctx (LCA+idx)"
    "query (auto)" "answers";
  List.iter
    (fun sections ->
      (* Grow the vocabulary with the document so per-term frequencies
         stay comparable across scales. *)
      let cfg =
        {
          Docgen.default with
          seed = 1000 + sections;
          sections;
          vocabulary_size = max 1000 (120 * sections);
        }
      in
      let xml = Docgen.generate_xml cfg in
      let tree = Docgen.generate cfg in
      let n = Doctree.size tree in
      let parse_ns =
        time_ns
          (Printf.sprintf "parse-%d" sections)
          (fun () -> ignore (Doctree.of_xml (Xfrag_xml.Xml_parser.parse_string xml)))
      in
      let ctx_ns =
        time_ns (Printf.sprintf "ctx-%d" sections) (fun () -> ignore (Context.create tree))
      in
      let ctx = Context.create tree in
      (* Query two mid-frequency vocabulary terms. *)
      let pick =
        Xfrag_workload.Querygen.pick_keywords ~seed:7
          { Xfrag_workload.Querygen.keyword_count = 2; min_postings = 3; max_postings = 40 }
          ctx
      in
      match pick with
      | None -> Printf.printf "%-10d (no keyword pair in band)\n" n
      | Some keywords ->
          let q = Query.make ~filter:(Filter.Size_at_most 4) keywords in
          let answers = Eval.answers ctx q in
          let query_ns =
            time_ns (Printf.sprintf "query-%d" sections) (fun () ->
                ignore (Eval.answers ctx q))
          in
          Printf.printf "%-10d %-14s %-14s %-14s %d\n" n (pp_ns parse_ns) (pp_ns ctx_ns)
            (pp_ns query_ns) (Frag_set.cardinal answers))
    [ 2; 8; 32; 128; 512 ]

(* --- A1: optimizer ablation --------------------------------------------------- *)

let a1 () =
  header
    "A1 (ablation): does Auto pick a near-best strategy?  (par.5's optimizer\n\
     sketch; regret = Auto time / best manual time)";
  Printf.printf "%-26s %-14s %-12s %-12s %s\n" "workload" "auto chose" "auto time"
    "best manual" "regret";
  let workloads =
    [
      ( "paper doc, size<=3",
        Paper.figure1 (),
        Paper.query_keywords,
        Filter.Size_at_most 3 );
      ( "6x6 postings, size<=4",
        Docgen.with_planted_keywords
          { Docgen.default with seed = 106; sections = 6 }
          ~plant:[ ("needleone", 6); ("needletwo", 6) ],
        [ "needleone"; "needletwo" ],
        Filter.Size_at_most 4 );
      ( "8x8 postings, no AM filter",
        Docgen.with_planted_keywords
          { Docgen.default with seed = 108; sections = 6 }
          ~plant:[ ("needleone", 8); ("needletwo", 8) ],
        [ "needleone"; "needletwo" ],
        Filter.Size_at_least 2 );
      ( "chain-heavy doc, size<=4",
        Doctree.of_specs
          (List.init 40 (fun id ->
               {
                 Doctree.spec_id = id;
                 spec_parent = (if id = 0 then -1 else id - 1);
                 spec_label = "n";
                 spec_text =
                   (if id mod 5 = 0 then "needleone"
                    else if id mod 7 = 0 then "needletwo"
                    else "");
               })),
        [ "needleone"; "needletwo" ],
        Filter.Size_at_most 4 );
    ]
  in
  List.iter
    (fun (name, tree, keywords, filter) ->
      let ctx = Context.create tree in
      let q = Query.make ~filter keywords in
      let auto = Eval.exec ctx (request q) in
      let auto_ns = time_ns (name ^ "-auto") (fun () -> ignore (Eval.exec ctx (request q))) in
      let manual =
        List.filter_map
          (fun strategy ->
            match Eval.exec ctx (request ~strategy q) with
            | _ ->
                Some
                  ( strategy,
                    time_ns
                      (name ^ "-" ^ Eval.strategy_name strategy)
                      (fun () -> ignore (Eval.exec ctx (request ~strategy q))) )
            | exception Invalid_argument _ -> None)
          Eval.all_strategies
      in
      let best_strategy, best_ns =
        List.fold_left
          (fun ((_, bns) as best) ((_, ns) as cur) -> if ns < bns then cur else best)
          (List.hd manual) (List.tl manual)
      in
      Printf.printf "%-26s %-14s %-12s %-12s %.2fx (best: %s)\n" name
        (Eval.strategy_name auto.Eval.strategy_used)
        (pp_ns auto_ns)
        (pp_ns best_ns)
        (auto_ns /. best_ns)
        (Eval.strategy_name best_strategy))
    workloads

(* --- OBS: tracing overhead ----------------------------------------------------- *)

let obs () =
  header
    "OBS: tracing overhead - semi-naive Eval.exec with the no-op tracer vs an\n\
     enabled span recorder (disabled must stay within noise of the seed)";
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 77; sections = 8 }
      ~plant:[ ("needleone", 8); ("needletwo", 8) ]
  in
  let ctx = Context.create tree in
  let q = Query.make ~filter:(Filter.Size_at_most 4) [ "needleone"; "needletwo" ] in
  let strategy = Eval.Semi_naive in
  let spans =
    let trace = Xfrag_obs.Trace.create () in
    ignore (Eval.exec ctx (Exec.Request.with_trace trace (request ~strategy q)));
    List.length (Xfrag_obs.Trace.spans trace)
  in
  let ns_off =
    time_ns ~quota:0.5 "trace-disabled" (fun () -> ignore (Eval.exec ctx (request ~strategy q)))
  in
  let ns_on =
    time_ns ~quota:0.5 "trace-enabled" (fun () ->
        ignore
          (Eval.exec ctx
             (Exec.Request.with_trace (Xfrag_obs.Trace.create ()) (request ~strategy q))))
  in
  Printf.printf "query: {needleone, needletwo} 8x8, size<=4, strategy semi-naive\n\n";
  Printf.printf "%-18s %s\n" "tracer" "time/query";
  Printf.printf "%-18s %s\n" "disabled" (pp_ns ns_off);
  Printf.printf "%-18s %s  (%d spans recorded per run)\n" "enabled" (pp_ns ns_on) spans;
  Printf.printf "\nenabled/disabled ratio: %.2fx\n" (ns_on /. ns_off);
  record ~experiment:"obs" ~scenario:"semi-naive 8x8 size<=4" ~strategy:"semi-naive"
    ~ns:ns_off
    [ ("tracing", Json.String "disabled") ];
  record ~experiment:"obs" ~scenario:"semi-naive 8x8 size<=4" ~strategy:"semi-naive"
    ~ns:ns_on
    [ ("tracing", Json.String "enabled"); ("spans", Json.Int spans) ]

(* --- F1: fault-injection overhead --------------------------------------------- *)

module Fault = Xfrag_fault.Fault

let f1 () =
  header
    "F1: fault-injection overhead - Eval.exec with every failpoint disarmed\n\
     (production steady state: one atomic load per site) vs one armed but\n\
     never-firing site forcing the locked slow path at every hit";
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 77; sections = 8 }
      ~plant:[ ("needleone", 8); ("needletwo", 8) ]
  in
  let ctx = Context.create tree in
  let q = Query.make ~filter:(Filter.Size_at_most 4) [ "needleone"; "needletwo" ] in
  let strategy = Eval.Semi_naive in
  Fault.Failpoint.clear ();
  let hit_disarmed =
    time_ns ~quota:0.25 "hit-disarmed" (fun () ->
        Fault.Failpoint.hit "eval.join")
  in
  let ns_disarmed =
    time_ns ~quota:0.5 "failpoints-disarmed" (fun () ->
        ignore (Eval.exec ctx (request ~strategy q)))
  in
  (* A Key trigger whose key is never supplied: every hit takes the lock,
     evaluates the trigger, and declines to fire — the worst case a chaos
     run imposes on sites it is not targeting. *)
  Fault.Failpoint.arm ~trigger:(Fault.Key "\x00never") "bench.unrelated"
    Fault.Raise;
  let hit_armed =
    time_ns ~quota:0.25 "hit-armed-slow-path" (fun () ->
        Fault.Failpoint.hit "eval.join")
  in
  let ns_armed =
    time_ns ~quota:0.5 "failpoints-armed-unrelated" (fun () ->
        ignore (Eval.exec ctx (request ~strategy q)))
  in
  Fault.Failpoint.reset ();
  Printf.printf "query: {needleone, needletwo} 8x8, size<=4, strategy semi-naive\n\n";
  Printf.printf "%-24s %-14s %s\n" "failpoints" "time/query" "time/hit";
  Printf.printf "%-24s %-14s %s\n" "disarmed" (pp_ns ns_disarmed)
    (pp_ns hit_disarmed);
  Printf.printf "%-24s %-14s %s\n" "armed (never fires)" (pp_ns ns_armed)
    (pp_ns hit_armed);
  Printf.printf "\narmed/disarmed query ratio: %.2fx\n" (ns_armed /. ns_disarmed);
  record ~experiment:"f1" ~scenario:"semi-naive 8x8 size<=4"
    ~strategy:"semi-naive" ~ns:ns_disarmed
    [
      ("failpoints", Json.String "disarmed");
      ("hit_ns", Json.Float hit_disarmed);
    ];
  record ~experiment:"f1" ~scenario:"semi-naive 8x8 size<=4"
    ~strategy:"semi-naive" ~ns:ns_armed
    [
      ("failpoints", Json.String "armed-unrelated");
      ("hit_ns", Json.Float hit_armed);
    ]

(* --- C1: join memo cache ------------------------------------------------------ *)

module Join_cache = Xfrag_core.Join_cache

let c1 () =
  header
    "C1: join memoization cache - cached vs uncached, every strategy\n\
     (per-document partitions; the cache is attached to pruned\n\
     strategies only, so unpruned rows run uncached by design)";
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 77; sections = 6 }
      ~plant:[ ("needleone", 8); ("needletwo", 8) ]
  in
  let ctx = Context.create tree in
  let q = Query.make ~filter:(Filter.Size_at_most 4) [ "needleone"; "needletwo" ] in
  Printf.printf
    "query: {needleone, needletwo} 8x8, filter size<=4; capacity %d (tiny: 128)\n\n"
    Join_cache.default_capacity;
  Printf.printf "%-14s %-10s %-12s %-8s %-8s %-8s %-9s %-9s %s\n" "strategy"
    "cache" "time" "joins" "hits" "misses" "evicted" "rejected" "answers";
  let scenario = "postings 8x8 size<=4" in
  List.iter
    (fun strategy ->
      let name = Eval.strategy_name strategy in
      let baseline, off_stats = run_counters (fun () -> Eval.exec ctx (request ~strategy q)) in
      let ns_off =
        time_ns ~quota:0.2 (name ^ "-off") (fun () ->
            ignore (Eval.exec ctx (request ~strategy q)))
      in
      record ~experiment:"c1" ~scenario ~strategy:name ~ns:ns_off
        [
          ("cache", Json.String "off");
          ("joins", Json.Int off_stats.Op_stats.fragment_joins);
          ("answers", Json.Int (Frag_set.cardinal baseline));
        ];
      Printf.printf "%-14s %-10s %-12s %-8d %-8s %-8s %-9s %-9s %d\n" name "off"
        (pp_ns ns_off) off_stats.Op_stats.fragment_joins "-" "-" "-" "-"
        (Frag_set.cardinal baseline);
      List.iter
        (fun (label, capacity) ->
          (* Instrument one cold run for the counters, then time against a
             warm shared cache — the service configuration, where repeated
             queries amortize the memo table. *)
          let make () = Join_cache.create ~capacity () in
          let cold_cache = make () in
          let cached cache = Exec.Request.with_cache (Some cache) (request ~strategy q) in
          let answers, stats =
            run_counters (fun () -> Eval.exec ctx (cached cold_cache))
          in
          assert (Frag_set.equal answers baseline);
          let warm = cached (make ()) in
          ignore (Eval.exec ctx warm);
          let ns_on =
            time_ns ~quota:0.2
              (Printf.sprintf "%s-%s" name label)
              (fun () -> ignore (Eval.exec ctx warm))
          in
          record ~experiment:"c1" ~scenario ~strategy:name ~ns:ns_on
            [
              ("cache", Json.String label);
              ("capacity", Json.Int capacity);
              ("joins", Json.Int stats.Op_stats.fragment_joins);
              ("cache_hits", Json.Int stats.Op_stats.cache_hits);
              ("cache_misses", Json.Int stats.Op_stats.cache_misses);
              ("cache_evictions", Json.Int stats.Op_stats.cache_evictions);
              ("cache_rejected", Json.Int stats.Op_stats.cache_rejected);
              ("answers", Json.Int (Frag_set.cardinal answers));
            ];
          Printf.printf "%-14s %-10s %-12s %-8d %-8d %-8d %-9d %-9d %d\n" name
            label (pp_ns ns_on) stats.Op_stats.fragment_joins
            stats.Op_stats.cache_hits stats.Op_stats.cache_misses
            stats.Op_stats.cache_evictions stats.Op_stats.cache_rejected
            (Frag_set.cardinal answers))
        [ ("default", Join_cache.default_capacity); ("tiny", 128) ];
      print_newline ())
    Eval.all_strategies

(* --- S1: serve - closed-loop load generator ------------------------------- *)

module Server = Xfrag_server.Server
module Router = Xfrag_server.Router
module Client = Xfrag_server.Client
module Clock = Xfrag_obs.Clock

(* Nearest-rank percentile over a sorted array of latencies (ns). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))

let s1 () =
  header
    "S1: xfrag serve - throughput and tail latency under concurrent load\n\
     (closed loop, one connection per request, deadline 500ms;\n\
     p50/p95/p99 from the log-bucketed histogram, interpolated)";
  let ctx = Docgen.generate_context { Docgen.default with seed = 9; sections = 10 } in
  let spec =
    { Xfrag_workload.Querygen.keyword_count = 2; min_postings = 4; max_postings = 40 }
  in
  let queries =
    Xfrag_workload.Querygen.queries ~seed:1 ~count:32
      ~filter:(Filter.Size_at_most 3) spec ctx
  in
  let bodies =
    queries
    |> List.map (fun q ->
           Json.to_string
             (Json.Obj
                [
                  ( "keywords",
                    Json.List
                      (List.map (fun k -> Json.String k) q.Query.keywords) );
                  ("filters", Json.Obj [ ("max_size", Json.Int 3) ]);
                  ("limit", Json.Int 10);
                ]))
    |> Array.of_list
  in
  if Array.length bodies = 0 then
    print_endline "  (vocabulary band produced no queries; skipping)"
  else begin
    Printf.printf "queries: %d distinct, 2 keywords each, size<=3\n\n"
      (Array.length bodies);
    Printf.printf "%-22s %9s %10s %10s %10s %7s %6s %5s\n" "scenario" "qps"
      "p50" "p95" "p99" "ok" "shed" "err";
    List.iter
      (fun (cache_label, mk_cache) ->
        List.iter
          (fun conc ->
            let cache = mk_cache () in
            let router =
              Router.create ?cache ~default_deadline_ns:500_000_000 ctx
            in
            let config = { Server.default_config with port = 0; queue_cap = 64 } in
            let server = Server.start ~config router in
            let accept_d = Domain.spawn (fun () -> Server.run server) in
            let port = Server.port server in
            let budget_ns = 1_200_000_000 in
            let t0 = Clock.monotonic () in
            (* Each client owns its slot in [results]; no shared state
               until after the joins. *)
            let results = Array.make conc ([], 0, 0, 0) in
            let run_client tid =
              let lats = ref [] and ok = ref 0 and shed = ref 0 and err = ref 0 in
              let i = ref tid in
              while Clock.monotonic () - t0 < budget_ns do
                let body = bodies.(!i mod Array.length bodies) in
                incr i;
                let sent = Clock.monotonic () in
                (match
                   Client.once ~host:"127.0.0.1" ~port ~meth:"POST"
                     ~path:"/query" ~body ()
                 with
                | Ok (200, _, _) ->
                    incr ok;
                    lats := float_of_int (Clock.monotonic () - sent) :: !lats
                | Ok (503, _, _) -> incr shed
                | Ok _ | Error _ -> incr err)
              done;
              results.(tid) <- (!lats, !ok, !shed, !err)
            in
            let threads =
              List.init conc (fun tid -> Thread.create run_client tid)
            in
            List.iter Thread.join threads;
            let wall_ns = Clock.monotonic () - t0 in
            Server.stop server;
            Domain.join accept_d;
            (* The same instrument production latencies go through:
               Metrics.Histogram with within-bucket log-linear
               interpolation, instead of exact nearest-rank over the
               raw samples. *)
            let hist =
              Xfrag_obs.Metrics.(histogram (create ()) "s1.lat_ns")
            in
            Array.iter
              (fun (l, _, _, _) ->
                List.iter (Xfrag_obs.Metrics.Histogram.observe hist) l)
              results;
            let sum f = Array.fold_left (fun a r -> a + f r) 0 results in
            let ok = sum (fun (_, o, _, _) -> o) in
            let shed = sum (fun (_, _, s, _) -> s) in
            let err = sum (fun (_, _, _, e) -> e) in
            let qps = float_of_int ok /. (float_of_int wall_ns /. 1e9) in
            let p50 = Xfrag_obs.Metrics.Histogram.quantile hist 0.50 in
            let p95 = Xfrag_obs.Metrics.Histogram.quantile hist 0.95 in
            let p99 = Xfrag_obs.Metrics.Histogram.quantile hist 0.99 in
            let scenario =
              Printf.sprintf "conc=%d cache=%s" conc cache_label
            in
            Printf.printf "%-22s %9.0f %10s %10s %10s %7d %6d %5d\n" scenario
              qps (pp_ns p50) (pp_ns p95) (pp_ns p99) ok shed err;
            record ~experiment:"s1" ~scenario ~strategy:"auto" ~ns:p50
              [
                ("qps", Json.Float qps);
                ("p95_ns", Json.Float p95);
                ("p99_ns", Json.Float p99);
                ("concurrency", Json.Int conc);
                ("cache", Json.String cache_label);
                ("ok", Json.Int ok);
                ("shed", Json.Int shed);
                ("errors", Json.Int err);
                ("wall_ns", Json.Int wall_ns);
              ])
          [ 8; 32; 64 ])
      [
        ("off", fun () -> None);
        (* Single global mutex vs. the default striped lock: same shared
           cache semantics, different contention profile under load. *)
        ( "mutex",
          fun () -> Some (Join_cache.create ~synchronized:true ~stripes:1 ()) );
        ("striped", fun () -> Some (Join_cache.create ~synchronized:true ()));
      ]
  end

(* --- P1: sharded corpus execution ---------------------------------------- *)

module Corpus = Xfrag_core.Corpus
module Shard_pool = Xfrag_core.Shard_pool
module Ranking = Xfrag_baselines.Ranking

(* Shard-count sweep over corpus sizes.  Each configuration gets its own
   pool sized shards-1 so the parallelism structure is real; on a
   single-core host the domains time-slice, so "speedup" reports the
   sharding overhead rather than a parallel win (see EXPERIMENTS.md). *)
let p1 () =
  header
    "P1: sharded corpus execution - shard count vs corpus size\n\
     (top-10 scored search, nearest-rank percentiles over repeated runs,\n\
     speedup = p50(1 shard) / p50(n shards))";
  let keywords = [ "shardterm"; "estuary" ] in
  let corpus_of n =
    Corpus.of_documents
      (List.init n (fun i ->
           let cfg = { Docgen.default with seed = 1000 + i; sections = 4 } in
           let plant =
             ("shardterm", 1 + (i mod 4))
             :: (if i mod 3 = 0 then [ ("estuary", 2) ] else [])
           in
           (Printf.sprintf "doc%03d.xml" i, Docgen.with_planted_keywords cfg ~plant)))
  in
  let request =
    Exec.Request.(with_limit (Some 10) (with_keywords keywords default))
  in
  let scorer ctx f = Ranking.score ctx ~keywords f in
  let iterations = 12 in
  Printf.printf "%-24s %10s %10s %12s %8s\n" "scenario" "p50" "p95"
    "merge p50" "speedup";
  List.iter
    (fun docs ->
      let corpus = corpus_of docs in
      let baseline_p50 = ref Float.nan in
      List.iter
        (fun shards ->
          let pool = Shard_pool.create ~domains:(max 0 (shards - 1)) () in
          let elapsed = Array.make iterations 0.0 in
          let merge = Array.make iterations 0.0 in
          for i = 0 to iterations - 1 do
            let o = Corpus.run ~pool ~shards ~scorer corpus request in
            elapsed.(i) <- float_of_int o.Corpus.elapsed_ns;
            merge.(i) <- float_of_int o.Corpus.merge_ns
          done;
          Shard_pool.shutdown pool;
          Array.sort compare elapsed;
          Array.sort compare merge;
          let p50 = percentile elapsed 0.50 in
          let p95 = percentile elapsed 0.95 in
          let merge_p50 = percentile merge 0.50 in
          if shards = 1 then baseline_p50 := p50;
          let speedup = !baseline_p50 /. p50 in
          let scenario = Printf.sprintf "docs=%d shards=%d" docs shards in
          Printf.printf "%-24s %10s %10s %12s %7.2fx\n" scenario (pp_ns p50)
            (pp_ns p95) (pp_ns merge_p50) speedup;
          record ~experiment:"p1" ~scenario ~strategy:"auto" ~ns:p50
            [
              ("p95_ns", Json.Float p95);
              ("merge_p50_ns", Json.Float merge_p50);
              ("docs", Json.Int docs);
              ("shards", Json.Int shards);
              ("speedup_vs_1_shard", Json.Float speedup);
            ])
        [ 1; 2; 4; 8 ])
    [ 8; 32 ]

(* --- R1: index routing and early termination ------------------------------ *)

(* Routed vs full-scan corpus search over a selective query.  One in four
   documents contains the query keyword at all (the rest are routed out by
   the posting-list intersection before any shard is dispatched), and the
   occurrence counts are tiered so most candidates carry a score bound
   strictly below the top-k threshold once the heap fills — those are
   skipped without evaluation.  Answers are asserted identical. *)
let r1 () =
  header
    "R1: corpus index routing + top-k early termination - routed vs full\n\
     scan (selective keyword in 1/4 of documents, tiered occurrence\n\
     counts, top-10; answers asserted bit-identical)";
  let keywords = [ "rarepearl" ] in
  let corpus_of n =
    Corpus.of_documents
      (List.init n (fun i ->
           let cfg = { Docgen.default with seed = 4000 + i; sections = 4 } in
           (* Every 4th doc carries the keyword; every 16th carries it
              three times in a single paragraph, so its one-node answer
              scores 3x idf and owns the top-10 while staying as cheap
              to evaluate as everything else — the sweep then measures
              visit cost, which is what routing and the bound eliminate,
              not the price of the winners (paid by both sides). *)
           let plant =
             if i mod 16 = 0 then [ ("rarepearl rarepearl rarepearl", 1) ]
             else if i mod 4 = 0 then [ ("rarepearl", 1) ]
             else []
           in
           (Printf.sprintf "doc%03d.xml" i, Docgen.with_planted_keywords cfg ~plant)))
  in
  let request =
    Exec.Request.(with_limit (Some 10) (with_keywords keywords default))
  in
  let scorer ctx f = Ranking.score ctx ~keywords f in
  Printf.printf "%-24s %-12s %-12s %12s %12s %12s\n" "scenario" "full scan"
    "routed" "candidates" "routed out" "bound skips";
  List.iter
    (fun docs ->
      let corpus = corpus_of docs in
      let bound = Corpus.score_bound corpus ~keywords in
      assert (bound <> None);
      let full = Corpus.run ~routing:false ~shards:1 ~scorer corpus request in
      let routed =
        Corpus.run ~routing:true ?bound ~shards:1 ~scorer corpus request
      in
      assert (
        List.for_all2
          (fun (h1, s1) (h2, s2) ->
            h1.Corpus.doc = h2.Corpus.doc
            && Fragment.compare h1.Corpus.fragment h2.Corpus.fragment = 0
            && (s1 : float) = s2)
          full.Corpus.hits routed.Corpus.hits);
      let candidates, routed_out, bound_skips =
        match routed.Corpus.routing with
        | Some ri -> (ri.Corpus.candidates, ri.Corpus.routed_out, ri.Corpus.bound_skips)
        | None -> (0, 0, 0)
      in
      let ns_full =
        time_ns
          (Printf.sprintf "full-%d" docs)
          (fun () ->
            ignore (Corpus.run ~routing:false ~shards:1 ~scorer corpus request))
      in
      let ns_routed =
        time_ns
          (Printf.sprintf "routed-%d" docs)
          (fun () ->
            ignore
              (Corpus.run ~routing:true ?bound ~shards:1 ~scorer corpus request))
      in
      let scenario = Printf.sprintf "docs=%d top-10" docs in
      Printf.printf "%-24s %-12s %-12s %12d %12d %12d\n" scenario
        (pp_ns ns_full) (pp_ns ns_routed) candidates routed_out bound_skips;
      record ~experiment:"r1" ~scenario ~strategy:"full-scan" ~ns:ns_full
        [ ("docs", Json.Int docs); ("routing", Json.String "off") ];
      record ~experiment:"r1" ~scenario ~strategy:"routed" ~ns:ns_routed
        [
          ("docs", Json.Int docs);
          ("routing", Json.String "on");
          ("candidates", Json.Int candidates);
          ("routed_out", Json.Int routed_out);
          ("bound_skips", Json.Int bound_skips);
          ("speedup_vs_full", Json.Float (ns_full /. ns_routed));
        ])
    [ 8; 64; 256 ]

(* --- M1: mutable corpus ----------------------------------------------------- *)

(* Two questions the mutable-corpus design hinges on, measured.

   First, maintenance: retracting one document's postings from the
   corpus index incrementally versus rebuilding the index from scratch
   over the survivors (the degradation fallback).  Both sides fold over
   prebuilt per-document inverted indexes, exactly as Corpus.remove and
   its rebuild path do, so the ratio is the real cost of losing
   incrementality.

   Second, interference: a closed-loop HTTP load against /corpus/query
   with writer traffic (PUT/DELETE cycles) mixed in at 0%, 5%, and 30%.
   Readers pin a snapshot and never block on the writer lock, so read
   tail latency should degrade only by the cache/index churn the writes
   cause, not by lock waits. *)
let m1 () =
  header
    "M1: mutable corpus - incremental retract vs full rebuild, and mixed\n\
     read/write HTTP load (reads pin snapshots; writes serialize)";
  let docs_of n =
    List.init n (fun i ->
        let cfg = { Docgen.default with seed = 7000 + i; sections = 4 } in
        ( Printf.sprintf "doc%03d.xml" i,
          Docgen.with_planted_keywords cfg
            ~plant:[ ("shardterm", 1 + (i mod 4)) ] ))
  in
  Printf.printf "index maintenance on one DELETE:\n";
  Printf.printf "%-24s %-14s %-14s %s\n" "scenario" "retract" "rebuild"
    "rebuild/retract";
  List.iter
    (fun n ->
      let docs = docs_of n in
      let corpus = Corpus.of_documents docs in
      let idx =
        match Corpus.index corpus with
        | Some idx -> idx
        | None -> failwith "m1: corpus built without an index"
      in
      let victim = "doc000.xml" in
      let ns_retract =
        time_ns (Printf.sprintf "retract-%d" n) (fun () ->
            ignore (Xfrag_index.Corpus_index.remove_document idx victim))
      in
      let survivors =
        List.filter_map
          (fun (name, tree) ->
            if name = victim then None else Some (name, Context.create tree))
          docs
      in
      let ns_rebuild =
        time_ns (Printf.sprintf "rebuild-%d" n) (fun () ->
            ignore
              (List.fold_left
                 (fun acc (name, ctx) ->
                   Xfrag_index.Corpus_index.add_document acc ~name
                     ctx.Context.index)
                 Xfrag_index.Corpus_index.empty survivors))
      in
      let scenario = Printf.sprintf "docs=%d" n in
      Printf.printf "%-24s %-14s %-14s %.1fx\n" scenario (pp_ns ns_retract)
        (pp_ns ns_rebuild)
        (ns_rebuild /. ns_retract);
      record ~experiment:"m1" ~scenario ~strategy:"incremental-retract"
        ~ns:ns_retract
        [ ("docs", Json.Int n); ("maintenance", Json.String "retract") ];
      record ~experiment:"m1" ~scenario ~strategy:"full-rebuild" ~ns:ns_rebuild
        [ ("docs", Json.Int n); ("maintenance", Json.String "rebuild") ])
    [ 16; 64; 256 ];
  (* Mixed read/write load.  Write share is spread Bresenham-style so a
     5% mix is one write every ~20 requests, not a burst; each client
     cycles PUT then DELETE of its own document so writers never
     conflict on a name and every DELETE finds its document. *)
  let corpus = Corpus.of_documents (docs_of 16) in
  let read_body = {|{"keywords":["shardterm"],"limit":10}|} in
  let put_body = "<doc><sec>shardterm churn churn</sec></doc>" in
  let conc = 8 in
  Printf.printf
    "\nclosed-loop /corpus/query load, %d clients, 16-doc corpus:\n" conc;
  Printf.printf "%-18s %9s %10s %10s %10s %7s %7s %5s\n" "scenario" "read qps"
    "read p50" "read p95" "write p95" "reads" "writes" "err";
  List.iter
    (fun (label, write_pct) ->
      let router =
        Router.create ~corpus ~shards:2 ~default_deadline_ns:500_000_000
          (Paper.figure1_context ())
      in
      let config = { Server.default_config with port = 0; queue_cap = 64 } in
      let server = Server.start ~config router in
      let accept_d = Domain.spawn (fun () -> Server.run server) in
      let port = Server.port server in
      let budget_ns = 1_200_000_000 in
      let t0 = Clock.monotonic () in
      let results = Array.make conc ([], [], 0) in
      let run_client tid =
        let read_lats = ref [] and write_lats = ref [] and err = ref 0 in
        let i = ref 0 and doc_resident = ref false in
        let doc_path = Printf.sprintf "/corpus/docs/mut-%d.xml" tid in
        while Clock.monotonic () - t0 < budget_ns do
          let is_write =
            (!i + 1) * write_pct / 100 > !i * write_pct / 100
          in
          incr i;
          let sent = Clock.monotonic () in
          if is_write then begin
            let outcome =
              if !doc_resident then
                Client.once ~host:"127.0.0.1" ~port ~meth:"DELETE"
                  ~path:doc_path ()
              else
                Client.once ~host:"127.0.0.1" ~port ~meth:"PUT" ~path:doc_path
                  ~body:put_body ()
            in
            match outcome with
            | Ok ((200 | 201), _, _) ->
                doc_resident := not !doc_resident;
                write_lats :=
                  float_of_int (Clock.monotonic () - sent) :: !write_lats
            | Ok _ | Error _ -> incr err
          end
          else
            match
              Client.once ~host:"127.0.0.1" ~port ~meth:"POST"
                ~path:"/corpus/query" ~body:read_body ()
            with
            | Ok (200, _, _) ->
                read_lats :=
                  float_of_int (Clock.monotonic () - sent) :: !read_lats
            | Ok _ | Error _ -> incr err
        done;
        results.(tid) <- (!read_lats, !write_lats, !err)
      in
      let threads = List.init conc (fun tid -> Thread.create run_client tid) in
      List.iter Thread.join threads;
      let wall_ns = Clock.monotonic () - t0 in
      Server.stop server;
      Domain.join accept_d;
      let hist_of sel =
        let h = Xfrag_obs.Metrics.(histogram (create ()) "m1.lat_ns") in
        Array.iter
          (fun r -> List.iter (Xfrag_obs.Metrics.Histogram.observe h) (sel r))
          results;
        h
      in
      let read_hist = hist_of (fun (r, _, _) -> r) in
      let write_hist = hist_of (fun (_, w, _) -> w) in
      let reads =
        Array.fold_left (fun a (r, _, _) -> a + List.length r) 0 results
      in
      let writes =
        Array.fold_left (fun a (_, w, _) -> a + List.length w) 0 results
      in
      let err = Array.fold_left (fun a (_, _, e) -> a + e) 0 results in
      let qps = float_of_int reads /. (float_of_int wall_ns /. 1e9) in
      let read_p50 = Xfrag_obs.Metrics.Histogram.quantile read_hist 0.50 in
      let read_p95 = Xfrag_obs.Metrics.Histogram.quantile read_hist 0.95 in
      let write_p95 =
        if writes = 0 then Float.nan
        else Xfrag_obs.Metrics.Histogram.quantile write_hist 0.95
      in
      Printf.printf "%-18s %9.0f %10s %10s %10s %7d %7d %5d\n" label qps
        (pp_ns read_p50) (pp_ns read_p95) (pp_ns write_p95) reads writes err;
      record ~experiment:"m1"
        ~scenario:(Printf.sprintf "mix=%s conc=%d" label conc)
        ~strategy:"auto" ~ns:read_p50
        [
          ("write_pct", Json.Int write_pct);
          ("qps", Json.Float qps);
          ("p95_ns", Json.Float read_p95);
          ( "write_p95_ns",
            Json.Float (if Float.is_nan write_p95 then 0.0 else write_p95) );
          ("reads", Json.Int reads);
          ("writes", Json.Int writes);
          ("errors", Json.Int err);
          ("concurrency", Json.Int conc);
          ("wall_ns", Json.Int wall_ns);
        ])
    [ ("read-only", 0); ("95/5", 5); ("70/30", 30) ]

(* --- O1: flight recorder overhead ----------------------------------------- *)

(* The always-on claim, measured: the full /query handling path on the
   T1 scenario (Figure 1 document, the paper's query, size<=3), once
   with the recorder disabled (record = one atomic load) and once
   enabled (wide event assembled and written to the ring).  The
   acceptance bar is <= 5% ns/op overhead. *)
let o1 () =
  header
    "O1: flight recorder overhead - /query handling on the T1 scenario\n\
     (recorder off vs on; same router, same request)";
  let router = Router.create (Paper.figure1_context ()) in
  let req =
    {
      Xfrag_server.Http.meth = "POST";
      path = "/query";
      query = [];
      version = "HTTP/1.1";
      headers = [];
      body =
        Json.to_string
          (Json.Obj
             [
               ( "keywords",
                 Json.List
                   (List.map (fun k -> Json.String k) Paper.query_keywords) );
               ("filters", Json.Obj [ ("max_size", Json.Int 3) ]);
             ]);
    }
  in
  let module Recorder = Xfrag_obs.Recorder in
  let was = Recorder.enabled () in
  let measure label enabled =
    Recorder.set_enabled enabled;
    let ns = time_ns label (fun () -> ignore (Router.handle router req)) in
    ns
  in
  let off = measure "recorder off" false in
  let on = measure "recorder on" true in
  Recorder.set_enabled was;
  let overhead_pct = (on -. off) /. off *. 100.0 in
  Printf.printf "%-14s %12s\n" "recorder" "ns/op";
  Printf.printf "%-14s %12s\n" "off" (pp_ns off);
  Printf.printf "%-14s %12s   (overhead %+.1f%%)\n" "on" (pp_ns on) overhead_pct;
  let scenario = "t1 figure1 size<=3 via /query" in
  record ~experiment:"o1" ~scenario ~strategy:"auto" ~ns:off
    [ ("recorder", Json.String "off") ];
  record ~experiment:"o1" ~scenario ~strategy:"auto" ~ns:on
    [
      ("recorder", Json.String "on");
      ("overhead_pct", Json.Float overhead_pct);
    ]

(* --- driver ------------------------------------------------------------------ *)

let experiments =
  [
    ("t1", t1); ("f3", f3); ("f4", f4); ("e1", e1); ("e2", e2); ("e3", e3);
    ("e4", e4); ("e5", e5); ("e6", e6); ("f1", f1); ("c1", c1); ("a1", a1);
    ("obs", obs);
    ("s1", s1); ("p1", p1); ("r1", r1); ("o1", o1); ("m1", m1);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> List.map String.lowercase_ascii names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" name
            (String.concat ", " (List.map fst experiments)))
    requested;
  write_bench_json ();
  print_newline ()
