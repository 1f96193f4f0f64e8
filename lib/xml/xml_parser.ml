module S = Xml_source

type options = { keep_comments : bool; keep_pis : bool }

let default_options = { keep_comments = false; keep_pis = false }

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c
  || match c with '0' .. '9' | '-' | '.' -> true | _ -> false

let parse_name src =
  match S.peek src with
  | Some c when is_name_start c ->
      S.advance src;
      let rest = S.take_while src is_name_char in
      String.make 1 c ^ rest
  | Some c -> S.error src (Printf.sprintf "invalid name start character %C" c)
  | None -> S.error src "unexpected end of input while reading a name"

(* Reference ::= '&' (Name | '#' digits | '#x' hexdigits) ';' *)
let parse_reference src =
  S.expect src '&';
  let body =
    S.take_while src (fun c -> c <> ';' && c <> '<' && c <> '&' && c <> '\n')
  in
  S.expect src ';';
  if body = "" then S.error src "empty entity reference"
  else if body.[0] = '#' then
    match Xml_entities.decode_char_ref body with
    | Some s -> s
    | None -> S.error src (Printf.sprintf "malformed character reference &%s;" body)
  else
    match Xml_entities.decode_named body with
    | Some s -> s
    | None -> S.error src (Printf.sprintf "unknown entity &%s;" body)

let parse_attribute_value src =
  let quote =
    match S.next src with
    | ('"' | '\'') as q -> q
    | c -> S.error src (Printf.sprintf "expected quoted attribute value, found %C" c)
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match S.peek src with
    | None -> S.error src "unterminated attribute value"
    | Some c when c = quote -> S.advance src
    | Some '<' -> S.error src "'<' is not allowed in attribute values"
    | Some '&' ->
        Buffer.add_string buf (parse_reference src);
        go ()
    | Some c ->
        S.advance src;
        (* Attribute-value normalization: whitespace becomes a space. *)
        Buffer.add_char buf (match c with '\t' | '\r' | '\n' -> ' ' | c -> c);
        go ()
  in
  go ();
  Buffer.contents buf

let parse_attributes src =
  let rec go acc =
    S.skip_whitespace src;
    match S.peek src with
    | Some c when is_name_start c ->
        let name = parse_name src in
        S.skip_whitespace src;
        S.expect src '=';
        S.skip_whitespace src;
        let value = parse_attribute_value src in
        if List.mem_assoc name acc then
          S.error src (Printf.sprintf "duplicate attribute %S" name)
        else go ((name, value) :: acc)
    | _ -> List.rev acc
  in
  go []

let parse_comment src =
  S.expect_string src "<!--";
  let buf = Buffer.create 32 in
  let rec go () =
    if S.looking_at src "-->" then S.expect_string src "-->"
    else if S.looking_at src "--" then S.error src "'--' is not allowed inside a comment"
    else
      match S.peek src with
      | None -> S.error src "unterminated comment"
      | Some c ->
          S.advance src;
          Buffer.add_char buf c;
          go ()
  in
  go ();
  Buffer.contents buf

let parse_pi src =
  S.expect_string src "<?";
  let target = parse_name src in
  if String.lowercase_ascii target = "xml" then
    S.error src "reserved processing instruction target 'xml'";
  S.skip_whitespace src;
  let buf = Buffer.create 16 in
  let rec go () =
    if S.looking_at src "?>" then S.expect_string src "?>"
    else
      match S.peek src with
      | None -> S.error src "unterminated processing instruction"
      | Some c ->
          S.advance src;
          Buffer.add_char buf c;
          go ()
  in
  go ();
  (target, Buffer.contents buf)

let parse_cdata src =
  S.expect_string src "<![CDATA[";
  let buf = Buffer.create 32 in
  let rec go () =
    if S.looking_at src "]]>" then S.expect_string src "]]>"
    else
      match S.peek src with
      | None -> S.error src "unterminated CDATA section"
      | Some c ->
          S.advance src;
          Buffer.add_char buf c;
          go ()
  in
  go ();
  Buffer.contents buf

(* Skip '<!DOCTYPE … >', including a bracketed internal subset. *)
let parse_doctype src =
  S.expect_string src "<!DOCTYPE";
  let depth = ref 0 and finished = ref false in
  while not !finished do
    match S.peek src with
    | None -> S.error src "unterminated DOCTYPE declaration"
    | Some '[' ->
        S.advance src;
        incr depth
    | Some ']' ->
        S.advance src;
        decr depth
    | Some '>' when !depth = 0 ->
        S.advance src;
        finished := true
    | Some ('"' | '\'') ->
        let q = S.next src in
        let rec skip () =
          match S.next src with c when c = q -> () | _ -> skip ()
        in
        skip ()
    | Some _ -> S.advance src
  done

let parse_xml_decl src =
  if S.looking_at src "<?xml" then begin
    (* Only valid if followed by whitespace (otherwise it is a PI whose
       target merely starts with "xml", which is reserved anyway). *)
    S.expect_string src "<?xml";
    let rec go () =
      if S.looking_at src "?>" then S.expect_string src "?>"
      else
        match S.peek src with
        | None -> S.error src "unterminated XML declaration"
        | Some _ ->
            S.advance src;
            go ()
    in
    go ()
  end

let rec parse_element options src =
  S.expect src '<';
  let name = parse_name src in
  let attributes = parse_attributes src in
  S.skip_whitespace src;
  match S.peek src with
  | Some '/' ->
      S.expect_string src "/>";
      { Xml_dom.name; attributes; children = [] }
  | Some '>' ->
      S.advance src;
      let children = parse_content options src in
      S.expect_string src "</";
      let close = parse_name src in
      if close <> name then
        S.error src (Printf.sprintf "mismatched end tag </%s>, expected </%s>" close name);
      S.skip_whitespace src;
      S.expect src '>';
      { Xml_dom.name; attributes; children }
  | Some c -> S.error src (Printf.sprintf "expected '>' or '/>', found %C" c)
  | None -> S.error src "unexpected end of input inside a start tag"

and parse_content options src =
  let items = ref [] in
  let text_buf = Buffer.create 64 in
  let flush_text () =
    if Buffer.length text_buf > 0 then begin
      items := Xml_dom.Text (Buffer.contents text_buf) :: !items;
      Buffer.clear text_buf
    end
  in
  let rec go () =
    match S.peek src with
    | None -> S.error src "unexpected end of input inside element content"
    | Some '<' ->
        if S.looking_at src "</" then flush_text ()
        else if S.looking_at src "<!--" then begin
          flush_text ();
          let c = parse_comment src in
          if options.keep_comments then items := Xml_dom.Comment c :: !items;
          go ()
        end
        else if S.looking_at src "<![CDATA[" then begin
          Buffer.add_string text_buf (parse_cdata src);
          go ()
        end
        else if S.looking_at src "<?" then begin
          flush_text ();
          let target, content = parse_pi src in
          if options.keep_pis then items := Xml_dom.Pi { target; content } :: !items;
          go ()
        end
        else begin
          flush_text ();
          let e = parse_element options src in
          items := Xml_dom.Element e :: !items;
          go ()
        end
    | Some '&' ->
        Buffer.add_string text_buf (parse_reference src);
        go ()
    | Some c ->
        S.advance src;
        Buffer.add_char text_buf c;
        go ()
  in
  go ();
  List.rev !items

let parse_prolog src =
  parse_xml_decl src;
  let pis = ref [] in
  let rec go () =
    S.skip_whitespace src;
    if S.looking_at src "<!--" then begin
      ignore (parse_comment src);
      go ()
    end
    else if S.looking_at src "<!DOCTYPE" then begin
      parse_doctype src;
      go ()
    end
    else if S.looking_at src "<?" then begin
      let pi = parse_pi src in
      pis := pi :: !pis;
      go ()
    end
  in
  go ();
  List.rev !pis

let parse_epilog src =
  let rec go () =
    S.skip_whitespace src;
    if S.looking_at src "<!--" then begin
      ignore (parse_comment src);
      go ()
    end
    else if S.looking_at src "<?" then begin
      ignore (parse_pi src);
      go ()
    end
    else if not (S.eof src) then S.error src "content after the root element"
  in
  go ()

let parse_string ?(options = default_options) data =
  let src = S.of_string data in
  let prolog_pis = parse_prolog src in
  (match S.peek src with
  | Some '<' -> ()
  | Some c -> S.error src (Printf.sprintf "expected root element, found %C" c)
  | None -> S.error src "document has no root element");
  let root = parse_element options src in
  parse_epilog src;
  { Xml_dom.root; prolog_pis }

let parse_string_result ?options data =
  match parse_string ?options data with
  | doc -> Ok doc
  | exception Xml_error.Parse_error e -> Error e

let parse_file ?options path =
  parse_string ?options (In_channel.with_open_bin path In_channel.input_all)
