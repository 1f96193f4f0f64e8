(* Seeded inputs for the two serving workloads: the XML files the
   server boots on and the request sequence the load generator replays.

   Everything here is a pure function of (workload, seed, window size),
   so the same arguments give byte-identical documents and requests.
   Request counts, not wall time, fix what a run measures: every run at
   one seed sends the same requests from the same starting state. *)

module Docgen = Xfrag_workload.Docgen
module Doctree = Xfrag_doctree.Doctree
module Xml_dom = Xfrag_xml.Xml_dom
module Prng = Xfrag_util.Prng
module Zipf = Xfrag_util.Zipf
module Json = Xfrag_obs.Json

type workload = Corpus_topk | Corpus_churn

let all_workloads = [ Corpus_topk; Corpus_churn ]

let workload_name = function
  | Corpus_topk -> "corpus-topk"
  | Corpus_churn -> "corpus-churn"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) all_workloads

(* Every read is a [POST /corpus/query]. *)
let read_path = "/corpus/query"

type op =
  | Read of string  (** JSON body for [read_path] *)
  | Put of string * string  (** document name, XML body *)
  | Delete of string

type t = {
  workload : workload;
  seed : int;
  docs : (string * string) list;  (** boot files: name, XML text *)
  ops : op array;
      (** warm-up, then the measured window, then (corpus-topk) the
          write phase *)
  warmup : int;  (** ops before the measured window *)
  measured : int;  (** ops in the measured window *)
}

let is_read = function Read _ -> true | Put _ | Delete _ -> false

(* --- shape constants ----------------------------------------------------

   Corpus: [corpus_docs] small articles.  Each carries two of [topics]
   planted topic terms, so one topic term occurs in about
   [2 * corpus_docs / topics] documents and routing excludes most of the
   corpus.  A read pairs a topic term with one of its [partners]:
   vocabulary terms whose document frequency lies in [df_band] (share of
   documents containing them), drawn once per topic.  Occurrence counts
   are tiered, as in bench R1: one holder in [strong_one_in] carries a
   paragraph with the topic term three times and every partner of the
   topic, plus the topic term in two more paragraphs; the other holders
   carry the topic term once.  A strong holder's best answer therefore
   scores above any single-occurrence holder's score bound, so once the
   top-10 heap fills with strong answers, weak holders are skipped.
   Frequent vocabulary terms are excluded: paired with anything they
   make one read cost seconds and millions of joins (see README). *)

let corpus_docs = 240

let corpus_doc_config seed = { Docgen.default with seed; sections = 2 }

let topics = 12

let partners = 16

let strong_one_in = 3

let df_band = (0.35, 0.65)

(* Request popularity: Zipf over the pair pool.  The exponent is a
   coverage choice, not a model of measured traffic: at 0.5 over the
   192 pairs the most popular pair is about 4% of reads, so pairs recur
   and the join cache sees repeated keys, while the least popular pair
   is still expected more than once in a window of 500 reads. *)
let zipf_exponent = 0.5

let read_filter = "size<=3"

let read_limit = 10

(* Nominal read rate on the reference host (2 vCPUs).  The measured
   window holds [seconds * rate / replays] reads, where the end-to-end
   run sends the sequence [replays] times, so all windows together last
   about [seconds] there.  At 10 seconds and 8 replays each window
   holds 500 reads, and the p99 of the 4,000 pooled round trips has 40
   beyond it. *)
let nominal_reads_per_s = 400

(* corpus-churn: one write after every [churn_reads_per_write] reads,
   about 10% of the ops.  Also a coverage choice: writes stay a small
   share of the ops, and a window of 500 reads still holds 55 writes,
   so the p90 of the writes pooled over 8 replays has 44 beyond it.
   corpus-topk runs a separate phase of [write_phase] writes after its
   read window: every workload must report write latency, and
   corpus-topk's read window stays read-only. *)
let churn_reads_per_write = 9

let write_phase = 120

(* --- documents ----------------------------------------------------------- *)

let xml_of_tree tree =
  let rec build n =
    let kids = List.map build (Doctree.children tree n) in
    let text = Doctree.text tree n in
    let content =
      if String.trim text = "" then kids else Xml_dom.text text :: kids
    in
    Xml_dom.element (Doctree.label tree n) content
  in
  match build (Doctree.root tree) with
  | Xml_dom.Element root ->
      Xfrag_xml.Xml_printer.to_string { Xml_dom.root; prolog_pis = [] }
  | Xml_dom.Text _ | Xml_dom.Comment _ | Xml_dom.Pi _ -> assert false

let topic_term i = Printf.sprintf "topic%02d" i

(* A document's plant from its (topic, strong) pairs; [partner_terms t]
   lists topic [t]'s partners. *)
let plant_of partner_terms topics_of =
  List.concat_map
    (fun (topic, strong) ->
      let t = topic_term topic in
      if strong then
        [ (String.concat " " ([ t; t; t ] @ partner_terms topic), 1); (t, 2) ]
      else [ (t, 1) ])
    topics_of

(* Boot documents: every topic has the same number of holders and the
   same number of strong holders, so per-read work varies little from
   seed to seed.  Slot [i] of [corpus_docs] gets topics [i mod topics]
   and one other; the slots are dealt to documents in seeded order. *)
let balanced_plants prng =
  let slots =
    Array.init corpus_docs (fun i ->
        let a = i mod topics in
        [ a; (a + 1 + (i / topics mod (topics - 1))) mod topics ])
  in
  Prng.shuffle prng slots;
  let seen = Array.make topics 0 in
  Array.map
    (List.map (fun t ->
         seen.(t) <- seen.(t) + 1;
         (t, seen.(t) mod strong_one_in = 0)))
    slots

(* Documents created while serving draw their topics independently. *)
let draw_topics prng =
  let a = Prng.int prng topics in
  let b = (a + 1 + Prng.int prng (topics - 1)) mod topics in
  List.map (fun t -> (t, Prng.int prng strong_one_in = 0)) [ a; b ]

(* Distinct Docgen seeds per document version, derived from the run
   seed so two seeds share no document. *)
let doc_seed ~seed i = (seed * 100_003) + i

(* --- read pools ----------------------------------------------------------- *)

let read_body keywords =
  Json.to_string
    (Json.Obj
       [
         ("keywords", Json.List (List.map (fun k -> Json.String k) keywords));
         ("filter", Json.String read_filter);
         ("limit", Json.Int read_limit);
       ])

(* Docgen text is space-separated vocabulary words. *)
let words text = List.filter (fun w -> w <> "") (String.split_on_char ' ' text)

let words_of tree =
  Doctree.fold (fun acc n -> List.rev_append (words (Doctree.text tree n)) acc) [] tree

let vocabulary_band trees =
  let df = Hashtbl.create 1024 in
  List.iter
    (fun tree ->
      List.sort_uniq String.compare (words_of tree)
      |> List.iter (fun w ->
             Hashtbl.replace df w (1 + Option.value ~default:0 (Hashtbl.find_opt df w))))
    trees;
  let n = float_of_int (List.length trees) in
  let lo, hi = df_band in
  Hashtbl.fold
    (fun w c acc ->
      let share = float_of_int c /. n in
      if share >= lo && share <= hi then w :: acc else acc)
    df []
  |> List.sort String.compare |> Array.of_list

(* [partners] distinct band terms per topic, no term shared by two
   topics. *)
let topic_partners prng trees =
  let band = vocabulary_band trees in
  if Array.length band < topics * partners then failwith "vocabulary band holds too few terms";
  Prng.shuffle prng band;
  Array.init topics (fun t -> Array.to_list (Array.sub band (t * partners) partners))

(* Zipf popularity over the pool: rank r is the r-th pool entry, and the
   pool order is already a seeded shuffle. *)
let read_stream prng pool ~count =
  let zipf = Zipf.create ~n:(Array.length pool) ~s:zipf_exponent in
  Array.init count (fun _ -> Read (read_body pool.(Zipf.sample zipf prng)))

(* --- writes --------------------------------------------------------------- *)

(* The write cycle: create a new document, replace it with a new
   version, delete it.  A created document carries a tag term of its own
   beside one of its topic terms, in two paragraphs, and the replace and
   the delete are each preceded by [tag_read]: a read of {tag, topic},
   whose only candidate is that document.  Its cache partition is
   therefore live when the write retires it.  One group of ops per
   write. *)
let write_groups prng ~seed ~count ~make_doc ~tag_read =
  let name = ref "" and tag = ref "" and doc_topics = ref [] in
  Array.init count (fun k ->
      let version () =
        make_doc ~doc_seed:(doc_seed ~seed (50_000 + k)) ~tag:!tag !doc_topics
      in
      match k mod 3 with
      | 0 ->
          name := Printf.sprintf "n%04d.xml" (k / 3);
          tag := Printf.sprintf "tag%04d" (k / 3);
          doc_topics := draw_topics prng;
          [ Put (!name, version ()) ]
      | 1 -> tag_read !tag !doc_topics @ [ Put (!name, version ()) ]
      | _ -> tag_read !tag !doc_topics @ [ Delete !name ])

(* One write group after every [reads_per_write] reads. *)
let interleave ~reads ~groups ~reads_per_write =
  let out = ref [] and w = ref 0 in
  Array.iteri
    (fun i r ->
      out := r :: !out;
      if (i + 1) mod reads_per_write = 0 && !w < Array.length groups then begin
        out := List.rev_append groups.(!w) !out;
        incr w
      end)
    reads;
  Array.of_list (List.rev !out)

let flatten groups = Array.of_list (List.concat (Array.to_list groups))

(* --- workloads -------------------------------------------------------------- *)

let warmup_of reads = reads / 10

let make workload ~seed ~reads =
  let prng = Prng.create seed in
  let configs = Array.init corpus_docs (fun i -> corpus_doc_config (doc_seed ~seed i)) in
  let partner_terms =
    let p = topic_partners prng (Array.to_list (Array.map Docgen.generate configs)) in
    fun t -> p.(t)
  in
  let plants = balanced_plants prng in
  let names = Array.init corpus_docs (Printf.sprintf "d%03d.xml") in
  let docs =
    Array.to_list
      (Array.mapi
         (fun i cfg ->
           ( names.(i),
             xml_of_tree
               (Docgen.with_planted_keywords cfg ~plant:(plant_of partner_terms plants.(i))) ))
         configs)
  in
  let pool =
    Array.of_list
      (List.concat_map
         (fun t -> List.map (fun v -> [ topic_term t; v ]) (partner_terms t))
         (List.init topics Fun.id))
  in
  Prng.shuffle prng pool;
  let tag_line tag doc_topics = tag ^ " " ^ topic_term (fst (List.hd doc_topics)) in
  let make_doc ~doc_seed ~tag doc_topics =
    xml_of_tree
      (Docgen.with_planted_keywords (corpus_doc_config doc_seed)
         ~plant:(plant_of partner_terms doc_topics @ [ (tag_line tag doc_topics, 2) ]))
  in
  let tag_read tag doc_topics =
    [ Read (read_body (String.split_on_char ' ' (tag_line tag doc_topics))) ]
  in
  let warm = read_stream prng pool ~count:(warmup_of reads) in
  let window = read_stream prng pool ~count:reads in
  let groups count = write_groups prng ~seed ~count ~make_doc ~tag_read in
  let warm, window, tail =
    match workload with
    | Corpus_churn ->
        let per = churn_reads_per_write in
        let g = groups ((Array.length warm + reads) / per) in
        let nw = Array.length warm / per in
        ( interleave ~reads:warm ~groups:(Array.sub g 0 nw) ~reads_per_write:per,
          interleave ~reads:window
            ~groups:(Array.sub g nw (Array.length g - nw))
            ~reads_per_write:per,
          [||] )
    | Corpus_topk -> (warm, window, flatten (groups write_phase))
  in
  {
    workload;
    seed;
    docs;
    ops = Array.concat [ warm; window; tail ];
    warmup = Array.length warm;
    measured = Array.length window;
  }

let reads_for ~seconds ~replays = seconds * nominal_reads_per_s / replays

let write_files t ~dir =
  List.map
    (fun (name, xml) ->
      let path = Filename.concat dir name in
      Out_channel.with_open_bin path (fun oc -> output_string oc xml);
      path)
    t.docs

(* Canonical byte rendering of everything a run sends, for the
   reproducibility tests. *)
let to_bytes t =
  let b = Buffer.create 65536 in
  List.iter (fun (name, xml) -> Printf.bprintf b "FILE %s %d\n%s\n" name (String.length xml) xml) t.docs;
  Printf.bprintf b "WARMUP %d MEASURED %d\n" t.warmup t.measured;
  Array.iter
    (function
      | Read body -> Printf.bprintf b "POST %s %s\n" read_path body
      | Put (name, xml) -> Printf.bprintf b "PUT %s %d\n%s\n" name (String.length xml) xml
      | Delete name -> Printf.bprintf b "DELETE %s\n" name)
    t.ops;
  Buffer.contents b
