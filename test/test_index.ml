(* Tests for the corpus-wide inverted index (lib/index): posting-list
   construction from the per-document indexes, conjunctive routing,
   conservativeness of the per-document score bound, structural equality
   under insertion order and removal, graceful degradation when the
   index.build failpoint fires, and quarantine/index consistency (a
   document that never loaded can never appear in a posting list). *)

module Corpus_index = Xfrag_index.Corpus_index
module Inverted_index = Xfrag_doctree.Inverted_index
module Doctree = Xfrag_doctree.Doctree
module Loader = Xfrag_doctree.Loader
module Corpus = Xfrag_core.Corpus
module Exec = Xfrag_core.Exec
module Fragment = Xfrag_core.Fragment
module Context = Xfrag_core.Context
module Eval = Xfrag_core.Eval
module Query = Xfrag_core.Query
module Frag_set = Xfrag_core.Frag_set
module Ranking = Xfrag_baselines.Ranking
module Docgen = Xfrag_workload.Docgen
module Fault = Xfrag_fault.Fault

let doc seed plant =
  Docgen.with_planted_keywords
    { Docgen.default with seed; sections = 2 }
    ~plant

(* Three documents with controlled posting lists: the planted words are
   fresh (outside the synthetic vocabulary), so their corpus statistics
   are exact. *)
let docs () =
  [
    ("a.xml", doc 1 [ ("mangrove", 2); ("estuary", 3) ]);
    ("b.xml", doc 2 [ ("mangrove", 4) ]);
    ("c.xml", doc 3 [ ("estuary", 1) ]);
  ]

let index_of docs =
  List.fold_left
    (fun idx (name, tree) ->
      Corpus_index.add_document idx ~name (Inverted_index.build tree))
    Corpus_index.empty docs

let build_index () = index_of (docs ())

let test_postings_and_stats () =
  let idx = build_index () in
  Alcotest.(check int) "doc count" 3 (Corpus_index.doc_count idx);
  Alcotest.(check int) "df mangrove" 2
    (Corpus_index.document_frequency idx "mangrove");
  Alcotest.(check int) "df estuary" 2
    (Corpus_index.document_frequency idx "estuary");
  Alcotest.(check int) "df absent" 0
    (Corpus_index.document_frequency idx "zyzzyva");
  Alcotest.(check int) "probe normalization matches query side" 2
    (Corpus_index.document_frequency idx "MANGROVE");
  let postings = Corpus_index.postings idx "mangrove" in
  Alcotest.(check (list string)) "posting docs sorted" [ "a.xml"; "b.xml" ]
    (List.map fst postings);
  List.iter
    (fun (d, p) ->
      let expected = if d = "a.xml" then 2 else 4 in
      Alcotest.(check int)
        (Printf.sprintf "term_count %s" d)
        expected p.Corpus_index.term_count;
      Alcotest.(check bool)
        (Printf.sprintf "positive bound %s" d)
        true
        (p.Corpus_index.max_weight > 0.))
    postings;
  Alcotest.(check bool) "total postings counted" true
    (Corpus_index.total_postings idx > 0);
  Alcotest.(check bool) "vocabulary counted" true
    (Corpus_index.vocabulary_size idx > 0)

let test_route_is_conjunctive () =
  let idx = build_index () in
  Alcotest.(check (list string)) "single keyword" [ "a.xml"; "b.xml" ]
    (Corpus_index.route idx ~keywords:[ "mangrove" ]);
  Alcotest.(check (list string)) "conjunction" [ "a.xml" ]
    (Corpus_index.route idx ~keywords:[ "mangrove"; "estuary" ]);
  Alcotest.(check (list string)) "zero-hit keyword empties the result" []
    (Corpus_index.route idx ~keywords:[ "mangrove"; "zyzzyva" ]);
  Alcotest.(check (list string)) "no keywords, no constraint"
    [ "a.xml"; "b.xml"; "c.xml" ]
    (Corpus_index.route idx ~keywords:[])

(* The load-bearing invariant: for every answer fragment of every
   document, the posting-derived bound dominates the tf·idf score. *)
let test_score_bound_is_conservative () =
  let corpus = Corpus.of_documents (docs ()) in
  let keywords = [ "mangrove"; "estuary" ] in
  let bound =
    match Corpus.score_bound corpus ~keywords with
    | Some b -> b
    | None -> Alcotest.fail "corpus should be indexed"
  in
  List.iter
    (fun kws ->
      let r =
        Exec.Request.default |> Exec.Request.with_keywords kws
      in
      let o =
        Corpus.run ~routing:false
          ~scorer:(fun ctx f -> Ranking.score ctx ~keywords f)
          corpus r
      in
      List.iter
        (fun ((h : Corpus.hit), score) ->
          Alcotest.(check bool)
            (Printf.sprintf "bound(%s) >= score %g" h.Corpus.doc score)
            true
            (bound h.Corpus.doc >= score))
        o.Corpus.hits)
    [ [ "mangrove" ]; [ "estuary" ]; [ "mangrove"; "estuary" ] ];
  (* The same invariant over stemming indexes folded straight through
     [Corpus_index.add_document]: inflections share their stem's
     posting, in the scorer and in the bound alike. *)
  let options = { Xfrag_doctree.Tokenizer.default_options with stem = true } in
  let contexts =
    List.map
      (fun (name, tree) -> (name, Context.create ~options tree))
      [
        ("a.xml", doc 1 [ ("mangroves", 2); ("mangrove", 1); ("estuaries", 3) ]);
        ("b.xml", doc 2 [ ("mangrove", 4); ("estuary", 2) ]);
        ("c.xml", doc 3 [ ("estuary", 1); ("estuaries", 1) ]);
      ]
  in
  let idx =
    List.fold_left
      (fun idx (name, ctx) -> Corpus_index.add_document idx ~name ctx.Context.index)
      Corpus_index.empty contexts
  in
  let scored = ref 0 in
  List.iter
    (fun keywords ->
      List.iter
        (fun (name, ctx) ->
          let bound = Corpus_index.score_bound idx ~doc:name ~keywords in
          Frag_set.iter
            (fun f ->
              let score = Ranking.score ctx ~keywords f in
              if score > 0. then incr scored;
              Alcotest.(check bool)
                (Printf.sprintf "stemmed bound(%s) >= score %g" name score)
                true (bound >= score))
            (Eval.answers ctx (Query.make keywords)))
        contexts)
    [ [ "mangrove" ]; [ "estuaries" ]; [ "mangroves"; "estuary" ] ];
  Alcotest.(check bool) "stemmed answers score" true (!scored > 0)

let test_index_build_fault_degrades_to_full_scan () =
  let keywords = [ "mangrove" ] in
  let r = Exec.Request.default |> Exec.Request.with_keywords keywords in
  let scorer ctx f = Ranking.score ctx ~keywords f in
  let baseline = (Corpus.run ~routing:false ~scorer (Corpus.of_documents (docs ())) r).Corpus.hits in
  let before = Fault.count "index_build_errors" in
  Fault.Failpoint.with_armed ~trigger:(Fault.Nth 2) "index.build" Fault.Raise
    (fun () ->
      let corpus = Corpus.of_documents (docs ()) in
      Alcotest.(check bool) "index dropped" true (Corpus.index corpus = None);
      Alcotest.(check int) "fault counted" (before + 1)
        (Fault.count "index_build_errors");
      Alcotest.(check bool) "score_bound unavailable" true
        (Corpus.score_bound corpus ~keywords = None);
      (* document_frequency falls back to the per-document rescan. *)
      Alcotest.(check int) "df via rescan" 2
        (Corpus.document_frequency corpus "mangrove");
      let o = Corpus.run ~scorer corpus r in
      Alcotest.(check bool) "full scan reported" true (o.Corpus.routing = None);
      Alcotest.(check bool) "answers identical to routed baseline" true
        (List.length baseline = List.length o.Corpus.hits
        && List.for_all2
             (fun ((h1 : Corpus.hit), s1) ((h2 : Corpus.hit), s2) ->
               h1.Corpus.doc = h2.Corpus.doc
               && Fragment.compare h1.Corpus.fragment h2.Corpus.fragment = 0
               && (s1 : float) = s2)
             baseline o.Corpus.hits))

(* Quarantine/index consistency: a file that fails to load is
   quarantined by Loader.load_documents and must be invisible to the
   corpus index — absent from posting lists, hence never a routing
   candidate. *)
let test_quarantined_doc_absent_from_candidates () =
  let dir = Filename.temp_file "xfrag_quarantine" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name content =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  let good =
    write "good.xml" "<article><p>mangrove estuary mangrove</p></article>"
  in
  let corrupt = write "corrupt.xml" "<article><p>mangrove</p>" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove good;
      Sys.remove corrupt;
      Sys.rmdir dir)
    (fun () ->
      let loaded, quarantined = Loader.load_documents [ good; corrupt ] in
      Alcotest.(check (list string)) "corrupt doc quarantined"
        [ "corrupt.xml" ]
        (List.map (fun q -> q.Loader.q_file) quarantined
        |> List.map Filename.basename);
      let corpus = Corpus.of_documents loaded in
      let idx =
        match Corpus.index corpus with
        | Some idx -> idx
        | None -> Alcotest.fail "corpus should be indexed"
      in
      Alcotest.(check (list string)) "quarantined doc is not a candidate"
        [ "good.xml" ]
        (Corpus_index.route idx ~keywords:[ "mangrove" ]);
      Alcotest.(check int) "df excludes quarantined doc" 1
        (Corpus.document_frequency corpus "mangrove"))

let test_remove_document () =
  let idx = build_index () in
  let idx = Corpus_index.remove_document idx "b.xml" in
  Alcotest.(check int) "doc count" 2 (Corpus_index.doc_count idx);
  Alcotest.(check (list string)) "postings dropped" [ "a.xml" ]
    (Corpus_index.route idx ~keywords:[ "mangrove" ]);
  Alcotest.(check int) "unknown remove is a no-op" 2
    (Corpus_index.doc_count (Corpus_index.remove_document idx "nope.xml"))

let test_equal_ignores_insertion_order () =
  let forward = build_index () in
  let backward = index_of (List.rev (docs ())) in
  Alcotest.(check bool) "same documents, two orders" true
    (Corpus_index.equal forward backward);
  let removed = Corpus_index.remove_document forward "b.xml" in
  Alcotest.(check bool) "not equal after remove_document" false
    (Corpus_index.equal removed backward);
  Alcotest.(check bool) "equal to a build without the document" true
    (Corpus_index.equal removed
       (index_of (List.filter (fun (n, _) -> n <> "b.xml") (docs ()))))

let test_remove_document_passes_retract_failpoint () =
  let idx = build_index () in
  Fault.Failpoint.with_armed ~trigger:(Fault.Nth 1) "index.retract" Fault.Raise
    (fun () ->
      (match Corpus_index.remove_document idx "b.xml" with
      | exception Fault.Injected ("index.retract", _) -> ()
      | exception e -> raise e
      | _ -> Alcotest.fail "armed retract should raise");
      (* Nth 1 fired; the next retract goes through untouched. *)
      Alcotest.(check int) "second retract succeeds" 2
        (Corpus_index.doc_count (Corpus_index.remove_document idx "b.xml")))

let () =
  (* These tests drive Corpus_index directly, beneath the Corpus.add
     containment layer, so the CI chaos leg arming index.build
     (XFRAG_FAILPOINTS=index.build=raise@1) would fail them by design
     rather than prove anything.  Disarm the site here; the degradation
     test re-arms it scoped, and the containment claim itself is carried
     by the corpus/server suites, which go through Corpus.add. *)
  Fault.Failpoint.disarm "index.build";
  (* Same reasoning for the retract site: these tests call
     Corpus_index.remove_document directly, beneath Corpus.remove's
     rebuild fallback, so the index.retract chaos leg would fail them
     by design.  The scoped failpoint test re-arms it itself. *)
  Fault.Failpoint.disarm "index.retract";
  Alcotest.run "index"
    [
      ( "corpus_index",
        [
          Alcotest.test_case "postings and stats" `Quick
            test_postings_and_stats;
          Alcotest.test_case "conjunctive routing" `Quick
            test_route_is_conjunctive;
          Alcotest.test_case "score bound is conservative" `Quick
            test_score_bound_is_conservative;
          Alcotest.test_case "remove document" `Quick test_remove_document;
          Alcotest.test_case "retract failpoint fires" `Quick
            test_remove_document_passes_retract_failpoint;
        ] );
      ( "rebuild-equal",
        [
          Alcotest.test_case "equal ignores insertion order" `Quick
            test_equal_ignores_insertion_order;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "index.build fault falls back to full scan"
            `Quick test_index_build_fault_degrades_to_full_scan;
          Alcotest.test_case "quarantined doc absent from candidates" `Quick
            test_quarantined_doc_absent_from_candidates;
        ] );
    ]
