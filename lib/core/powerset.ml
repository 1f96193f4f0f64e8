let check_size name max_set_size set =
  let n = Frag_set.cardinal set in
  if n > max_set_size then
    invalid_arg
      (Printf.sprintf
         "Powerset.%s: operand has %d fragments, above the %d-element guard \
          for exponential enumeration"
         name n max_set_size)

(* All joins ⋈S of non-empty subsets S of [elems], indexed by bitmask. *)
let subset_joins ?stats ?cache ?(deadline = Deadline.none) ctx
    (elems : Fragment.t array) =
  let n = Array.length elems in
  let joins = Array.make (1 lsl n) None in
  for mask = 1 to (1 lsl n) - 1 do
    (* Exponentially many masks: check between every two joins so even a
       millisecond deadline aborts the enumeration promptly. *)
    Deadline.check deadline;
    let lowest = mask land -mask in
    let idx =
      let rec bit i = if 1 lsl i = lowest then i else bit (i + 1) in
      bit 0
    in
    let rest = mask lxor lowest in
    let f =
      if rest = 0 then elems.(idx)
      else Join.fragment ?stats ?cache ctx elems.(idx) (Option.get joins.(rest))
    in
    joins.(mask) <- Some f
  done;
  joins

module Trace = Xfrag_obs.Trace
module Json = Xfrag_obs.Json

let traced trace name f =
  if not (Trace.is_enabled trace) then f ()
  else
    Trace.with_span trace name (fun () ->
        let out = f () in
        Trace.add_attr trace "out" (Json.Int (Frag_set.cardinal out));
        out)

let literal ?stats ?cache ?(trace = Trace.disabled)
    ?(deadline = Deadline.none) ?(max_set_size = 14) ctx s1 s2 =
  traced trace "powerset-literal" @@ fun () ->
  check_size "literal" max_set_size s1;
  check_size "literal" max_set_size s2;
  let e1 = Array.of_list (Frag_set.elements s1) in
  let e2 = Array.of_list (Frag_set.elements s2) in
  let j1 = subset_joins ?stats ?cache ~deadline ctx e1 in
  let j2 = subset_joins ?stats ?cache ~deadline ctx e2 in
  let out = Frag_set.Builder.create () in
  for m1 = 1 to (1 lsl Array.length e1) - 1 do
    Deadline.check deadline;
    for m2 = 1 to (1 lsl Array.length e2) - 1 do
      let f = Join.fragment ?stats ?cache ctx (Option.get j1.(m1)) (Option.get j2.(m2)) in
      ignore (Frag_set.Builder.add out f)
    done
  done;
  Frag_set.Builder.freeze out

let many_literal ?stats ?cache ?(trace = Trace.disabled)
    ?(deadline = Deadline.none) ?(max_set_size = 14) ctx sets =
  traced trace "powerset-literal" @@ fun () ->
  match sets with
  | [] -> invalid_arg "Powerset.many_literal: no operands"
  | [ s ] ->
      check_size "many_literal" max_set_size s;
      let e = Array.of_list (Frag_set.elements s) in
      let j = subset_joins ?stats ?cache ~deadline ctx e in
      let out = Frag_set.Builder.create () in
      for m = 1 to (1 lsl Array.length e) - 1 do
        ignore (Frag_set.Builder.add out (Option.get j.(m)))
      done;
      Frag_set.Builder.freeze out
  | first :: rest ->
      List.iter (check_size "many_literal" max_set_size) sets;
      (* Fold the binary literal product over the operands.  This is the
         associative reading of the m-ary definition: a join taking at
         least one fragment from each operand. *)
      let join_one acc s =
        let e = Array.of_list (Frag_set.elements s) in
        let j = subset_joins ?stats ?cache ~deadline ctx e in
        let out = Frag_set.Builder.create () in
        Frag_set.iter
          (fun fa ->
            Deadline.check deadline;
            for m = 1 to (1 lsl Array.length e) - 1 do
              ignore
                (Frag_set.Builder.add out
                   (Join.fragment ?stats ?cache ctx fa (Option.get j.(m))))
            done)
          acc;
        Frag_set.Builder.freeze out
      in
      let e1 = Array.of_list (Frag_set.elements first) in
      let j1 = subset_joins ?stats ?cache ~deadline ctx e1 in
      let acc = Frag_set.Builder.create () in
      for m = 1 to (1 lsl Array.length e1) - 1 do
        ignore (Frag_set.Builder.add acc (Option.get j1.(m)))
      done;
      List.fold_left join_one (Frag_set.Builder.freeze acc) rest
