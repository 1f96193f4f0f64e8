type t = {
  data : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let of_string data = { data; pos = 0; line = 1; col = 1 }

let position t : Xml_error.position = { line = t.line; column = t.col; offset = t.pos }

let eof t = t.pos >= String.length t.data

let peek t = if eof t then None else Some t.data.[t.pos]

let advance t =
  if not (eof t) then begin
    (if t.data.[t.pos] = '\n' then begin
       t.line <- t.line + 1;
       t.col <- 1
     end
     else t.col <- t.col + 1);
    t.pos <- t.pos + 1
  end

let error t msg = Xml_error.raise_error (position t) msg

let next t =
  match peek t with
  | None -> error t "unexpected end of input"
  | Some c ->
      advance t;
      c

let expect t c =
  let got = next t in
  if got <> c then error t (Printf.sprintf "expected %C, found %C" c got)

let looking_at t s =
  let n = String.length s in
  t.pos + n <= String.length t.data
  &&
  let rec go i = i >= n || (t.data.[t.pos + i] = s.[i] && go (i + 1)) in
  go 0

let expect_string t s =
  if looking_at t s then String.iter (fun _ -> advance t) s
  else error t (Printf.sprintf "expected %S" s)

let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let skip_whitespace t =
  while (match peek t with Some c when is_space c -> true | _ -> false) do
    advance t
  done

let take_while t p =
  let start = t.pos in
  while (match peek t with Some c when p c -> true | _ -> false) do
    advance t
  done;
  String.sub t.data start (t.pos - start)
