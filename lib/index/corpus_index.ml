module String_map = Map.Make (String)
module Inverted_index = Xfrag_doctree.Inverted_index
module Doctree = Xfrag_doctree.Doctree
module Tokenizer = Xfrag_doctree.Tokenizer
module Fault = Xfrag_fault.Fault

type posting = { term_count : int; max_weight : float }

type doc_info = {
  doc_nodes : int;
  doc_keywords : int;  (** distinct keywords, i.e. this doc's posting entries *)
}

type t = {
  options : Tokenizer.options option;
      (* fixed by the first document so every probe normalizes the way
         the per-document indexes did *)
  docs : doc_info String_map.t;
  postings : posting String_map.t String_map.t;  (* keyword -> doc -> posting *)
}

let empty = { options = None; docs = String_map.empty; postings = String_map.empty }

let add_document t ~name idx =
  Fault.Failpoint.hit ~key:name "index.build";
  if String_map.mem name t.docs then
    invalid_arg (Printf.sprintf "Corpus_index.add_document: duplicate document %S" name);
  let nodes = Doctree.size (Inverted_index.tree idx) in
  let stats = Inverted_index.stats idx in
  let postings, keyword_count =
    List.fold_left
      (fun (acc, count) (k, df, occurrences) ->
        (* [occurrences x idf] bounds any fragment's tf.idf contribution
           because fragment tf <= document occurrences and the length
           penalty divides by >= 1. *)
        let idf = Inverted_index.idf ~nodes ~df in
        let p =
          { term_count = occurrences; max_weight = float_of_int occurrences *. idf }
        in
        let per_doc =
          Option.value (String_map.find_opt k acc) ~default:String_map.empty
        in
        (String_map.add k (String_map.add name p per_doc) acc, count + 1))
      (t.postings, 0) stats
  in
  {
    options =
      (match t.options with
      | Some _ as o -> o
      | None -> Some (Inverted_index.options idx));
    docs = String_map.add name { doc_nodes = nodes; doc_keywords = keyword_count } t.docs;
    postings;
  }

let remove_document t name =
  Fault.Failpoint.hit ~key:name "index.retract";
  match String_map.find_opt name t.docs with
  | None -> t
  | Some _ ->
      let postings =
        String_map.filter_map
          (fun _k per_doc ->
            let per_doc = String_map.remove name per_doc in
            if String_map.is_empty per_doc then None else Some per_doc)
          t.postings
      in
      { t with docs = String_map.remove name t.docs; postings }

let options t = t.options

let doc_count t = String_map.cardinal t.docs

let vocabulary_size t = String_map.cardinal t.postings

let total_postings t =
  String_map.fold (fun _ info acc -> acc + info.doc_keywords) t.docs 0

let posting_map t keyword =
  match
    String_map.find_opt
      (Tokenizer.normalize_probe ?options:t.options keyword)
      t.postings
  with
  | Some m -> m
  | None -> String_map.empty

let document_frequency t keyword = String_map.cardinal (posting_map t keyword)

let postings t keyword = String_map.bindings (posting_map t keyword)

let route t ~keywords =
  match keywords with
  | [] -> List.map fst (String_map.bindings t.docs)
  | first :: rest ->
      let maps = posting_map t first :: List.map (posting_map t) rest in
      let smallest =
        List.fold_left
          (fun best m ->
            if String_map.cardinal m < String_map.cardinal best then m else best)
          (List.hd maps) (List.tl maps)
      in
      String_map.fold
        (fun name _ acc ->
          if List.for_all (String_map.mem name) maps then name :: acc else acc)
        smallest []
      |> List.rev

let score_bound t ~doc ~keywords =
  List.fold_left
    (fun acc k ->
      match String_map.find_opt doc (posting_map t k) with
      | Some p -> acc +. p.max_weight
      | None -> acc)
    0.0 keywords

(* Weights compare by bit pattern: [=] would call 0.0 and -0.0 equal and
   nan unequal to itself. *)
let posting_equal p q =
  p.term_count = q.term_count
  && Int64.equal (Int64.bits_of_float p.max_weight) (Int64.bits_of_float q.max_weight)

let equal a b =
  Option.equal ( = ) a.options b.options
  && String_map.equal
       (fun x y -> x.doc_nodes = y.doc_nodes && x.doc_keywords = y.doc_keywords)
       a.docs b.docs
  && String_map.equal (String_map.equal posting_equal) a.postings b.postings
