type options = { min_length : int; stopwords : bool; stem : bool }

let default_options = { min_length = 1; stopwords = false; stem = false }

let stopword_list =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "but"; "by"; "for"; "if";
    "in"; "into"; "is"; "it"; "its"; "no"; "not"; "of"; "on"; "or"; "such";
    "that"; "the"; "their"; "then"; "there"; "these"; "they"; "this"; "to";
    "was"; "we"; "were"; "will"; "with";
  ]

let stopword_table =
  let tbl = Hashtbl.create 64 in
  List.iter (fun w -> Hashtbl.replace tbl w ()) stopword_list;
  tbl

let is_stopword w = Hashtbl.mem stopword_table (String.lowercase_ascii w)

let is_token_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | c -> Char.code c >= 0x80  (* keep multi-byte UTF-8 sequences intact *)

let normalize = String.lowercase_ascii

let tokenize ?(options = default_options) text =
  let n = String.length text in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && not (is_token_char text.[!i]) do
      incr i
    done;
    let start = !i in
    while !i < n && is_token_char text.[!i] do
      incr i
    done;
    if !i > start then begin
      let tok = normalize (String.sub text start (!i - start)) in
      if
        String.length tok >= options.min_length
        && not (options.stopwords && Hashtbl.mem stopword_table tok)
      then out := (if options.stem then Stemmer.stem tok else tok) :: !out
    end
  done;
  List.rev !out

let normalize_probe ?(options = default_options) keyword =
  match tokenize ~options keyword with
  | [ tok ] -> tok
  | _ -> normalize keyword

let keyword_set ?options text =
  List.sort_uniq String.compare (tokenize ?options text)

let contains_keyword ?options text ~keyword =
  List.mem (normalize_probe ?options keyword) (tokenize ?options text)
