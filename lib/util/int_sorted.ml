type t = int array

let empty : t = [||]

let is_empty a = Array.length a = 0

let singleton x = [| x |]

let dedup_sorted a =
  let n = Array.length a in
  if n = 0 then a
  else begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let of_array a =
  let b = Array.copy a in
  Array.sort compare b;
  dedup_sorted b

let of_list xs = of_array (Array.of_list xs)

let to_list = Array.to_list

let cardinal = Array.length

let min_elt a =
  if Array.length a = 0 then invalid_arg "Int_sorted.min_elt: empty"
  else a.(0)

let max_elt a =
  if Array.length a = 0 then invalid_arg "Int_sorted.max_elt: empty"
  else a.(Array.length a - 1)

let position x a =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = x then found := mid
    else if v < x then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mem x a = position x a >= 0

let equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let compare a b =
  let na = Array.length a and nb = Array.length b in
  if na <> nb then Stdlib.compare na nb
  else
    let rec go i =
      if i >= na then 0
      else
        let c = Stdlib.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let subset a b =
  let na = Array.length a and nb = Array.length b in
  if na > nb then false
  else begin
    (* Merge walk: advance through b looking for each element of a. *)
    let i = ref 0 and j = ref 0 and ok = ref true in
    while !ok && !i < na do
      if !j >= nb then ok := false
      else if b.(!j) = a.(!i) then begin incr i; incr j end
      else if b.(!j) < a.(!i) then incr j
      else ok := false
    done;
    !ok
  end

let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin out.(!w) <- x; incr i end
      else if y < x then begin out.(!w) <- y; incr j end
      else begin out.(!w) <- x; incr i; incr j end;
      incr w
    done;
    while !i < na do out.(!w) <- a.(!i); incr i; incr w done;
    while !j < nb do out.(!w) <- b.(!j); incr j; incr w done;
    if !w = na + nb then out else Array.sub out 0 !w
  end

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin out.(!w) <- x; incr w; incr i; incr j end
  done;
  Array.sub out 0 !w

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  while !i < na do
    if !j >= nb || a.(!i) < b.(!j) then begin
      out.(!w) <- a.(!i); incr w; incr i
    end
    else if a.(!i) = b.(!j) then begin incr i; incr j end
    else incr j
  done;
  if !w = na then out else Array.sub out 0 !w

let add x a = if mem x a then a else union [| x |] a

let remove x a = if mem x a then diff a [| x |] else a

let union_many sets =
  let rec round = function
    | [] -> empty
    | [ s ] -> s
    | s1 :: s2 :: rest -> round (union s1 s2 :: pair rest)
  and pair = function
    | s1 :: s2 :: rest -> union s1 s2 :: pair rest
    | rest -> rest
  in
  round sets

let hash a =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h * 16777619) lxor a.(i);
    h := !h land max_int
  done;
  !h

let iter f a = Array.iter f a

let fold f init a = Array.fold_left f init a

let for_all p a = Array.for_all p a

let exists p a = Array.exists p a

let filter p a =
  let out = Array.make (Array.length a) 0 in
  let w = ref 0 in
  Array.iter (fun x -> if p x then begin out.(!w) <- x; incr w end) a;
  Array.sub out 0 !w

let pp ppf a =
  Format.fprintf ppf "@[<h>\xE2\x9F\xA8";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "n%d" x)
    a;
  Format.fprintf ppf "\xE2\x9F\xA9@]"
