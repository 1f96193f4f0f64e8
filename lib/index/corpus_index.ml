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

(* --- serialization ------------------------------------------------- *)

let format_version = 1

(* Same percent-escape discipline as [Codec]: protect the line/field
   structure ('%', '\t', '\n', '\r'). *)
let escape s =
  let needs_escape = function '%' | '\t' | '\n' | '\r' -> true | _ -> false in
  if String.exists needs_escape s then begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if needs_escape c then
          Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

let unescape s =
  match String.index_opt s '%' with
  | None -> Ok s
  | Some _ ->
      let buf = Buffer.create (String.length s) in
      let n = String.length s in
      let rec go i =
        if i >= n then Ok (Buffer.contents buf)
        else if s.[i] = '%' then
          if i + 2 < n then begin
            match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
            | Some code ->
                Buffer.add_char buf (Char.chr code);
                go (i + 3)
            | None -> Error (Printf.sprintf "bad escape at offset %d" i)
          end
          else Error "truncated escape"
        else begin
          Buffer.add_char buf s.[i];
          go (i + 1)
        end
      in
      go 0

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "xfrag-corpus-index %d\n" format_version);
  (match t.options with
  | None -> Buffer.add_string buf "options -\n"
  | Some o ->
      Buffer.add_string buf
        (Printf.sprintf "options %d %d %d\n" o.Tokenizer.min_length
           (if o.Tokenizer.stopwords then 1 else 0)
           (if o.Tokenizer.stem then 1 else 0)));
  Buffer.add_string buf (Printf.sprintf "docs %d\n" (String_map.cardinal t.docs));
  String_map.iter
    (fun name info ->
      Buffer.add_string buf
        (Printf.sprintf "d\t%s\t%d\t%d\n" (escape name) info.doc_nodes
           info.doc_keywords))
    t.docs;
  Buffer.add_string buf
    (Printf.sprintf "keywords %d\n" (String_map.cardinal t.postings));
  String_map.iter
    (fun k per_doc ->
      Buffer.add_string buf
        (Printf.sprintf "k\t%s\t%d\n" (escape k) (String_map.cardinal per_doc));
      String_map.iter
        (fun doc p ->
          (* %h prints the exact hex-float representation, so load/save
             round-trips the bound bit-for-bit. *)
          Buffer.add_string buf
            (Printf.sprintf "p\t%s\t%d\t%h\n" (escape doc) p.term_count
               p.max_weight))
        per_doc)
    t.postings;
  Buffer.contents buf

exception Corrupt of string

let of_string_exn data =
  let lines = ref (String.split_on_char '\n' data) in
  let next what =
    match !lines with
    | [] -> raise (Corrupt (Printf.sprintf "truncated input, expected %s" what))
    | l :: rest ->
        lines := rest;
        l
  in
  let fail fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let unescape_exn s =
    match unescape s with Ok s -> s | Error e -> fail "%s" e
  in
  (match String.split_on_char ' ' (next "header") with
  | [ "xfrag-corpus-index"; v ] -> (
      match int_of_string_opt v with
      | Some v when v = format_version -> ()
      | Some v -> fail "unsupported format version %d" v
      | None -> fail "malformed header")
  | _ -> fail "not an xfrag-corpus-index file");
  let options =
    match String.split_on_char ' ' (next "options") with
    | [ "options"; "-" ] -> None
    | [ "options"; ml; sw; st ] -> (
        match (int_of_string_opt ml, int_of_string_opt sw, int_of_string_opt st) with
        | Some min_length, Some sw, Some st ->
            Some
              {
                Tokenizer.min_length;
                stopwords = sw <> 0;
                stem = st <> 0;
              }
        | _ -> fail "malformed options line")
    | _ -> fail "malformed options line"
  in
  let count_of prefix line =
    match String.split_on_char ' ' line with
    | [ p; n ] when String.equal p prefix -> (
        match int_of_string_opt n with
        | Some n when n >= 0 && n <= String.length data -> n
        | Some n -> fail "implausible %s count %d" prefix n
        | None -> fail "malformed %s line" prefix)
    | _ -> fail "expected %s line, got %S" prefix line
  in
  let doc_lines = count_of "docs" (next "docs header") in
  let docs = ref String_map.empty in
  for _ = 1 to doc_lines do
    match String.split_on_char '\t' (next "doc record") with
    | [ "d"; name; nodes; keywords ] -> (
        match (int_of_string_opt nodes, int_of_string_opt keywords) with
        | Some doc_nodes, Some doc_keywords ->
            docs := String_map.add (unescape_exn name) { doc_nodes; doc_keywords } !docs
        | _ -> fail "bad counts in doc record")
    | l -> fail "malformed doc record %S" (String.concat "\\t" l)
  done;
  let keyword_lines = count_of "keywords" (next "keywords header") in
  let postings = ref String_map.empty in
  for _ = 1 to keyword_lines do
    let k, ndocs =
      match String.split_on_char '\t' (next "keyword record") with
      | [ "k"; k; ndocs ] -> (
          match int_of_string_opt ndocs with
          | Some n when n >= 0 && n <= String.length data -> (unescape_exn k, n)
          | _ -> fail "bad posting count in keyword record")
      | l -> fail "malformed keyword record %S" (String.concat "\\t" l)
    in
    let per_doc = ref String_map.empty in
    for _ = 1 to ndocs do
      match String.split_on_char '\t' (next "posting record") with
      | [ "p"; doc; tc; w ] -> (
          match (int_of_string_opt tc, float_of_string_opt w) with
          | Some term_count, Some max_weight ->
              per_doc :=
                String_map.add (unescape_exn doc) { term_count; max_weight } !per_doc
          | _ -> fail "bad fields in posting record")
      | l -> fail "malformed posting record %S" (String.concat "\\t" l)
    done;
    postings := String_map.add k !per_doc !postings
  done;
  (match List.filter (fun l -> l <> "") !lines with
  | [] -> ()
  | l :: _ -> fail "trailing garbage %S" l);
  { options; docs = !docs; postings = !postings }

let of_string data =
  match of_string_exn data with
  | t -> Ok t
  | exception Corrupt m -> Error m
  (* Belt and braces, as in [Codec]: a corrupted file must never crash
     the caller even through a path the parser missed. *)
  | exception e -> Error ("corrupt corpus index: " ^ Printexc.to_string e)

let save t path =
  let oc = open_out_bin path in
  output_string oc (to_string t);
  close_out oc

let load path =
  let ic = open_in_bin path in
  match
    let n = in_channel_length ic in
    really_input_string ic n
  with
  | data ->
      close_in ic;
      of_string data
  | exception End_of_file ->
      close_in_noerr ic;
      Error "truncated file"
  | exception e ->
      close_in_noerr ic;
      raise e
