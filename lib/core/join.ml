module Int_sorted = Xfrag_util.Int_sorted
module Lca = Xfrag_doctree.Lca
module Trace = Xfrag_obs.Trace
module Json = Xfrag_obs.Json

let bump stats f = match stats with None -> () | Some s -> f s

let compute_fragment ?stats (ctx : Context.t) f1 f2 =
  (* Disarmed cost is one atomic load; armed, this site can abort or
     slow any join deep inside a fixed point — the engine above must
     contain it at the document boundary. *)
  Xfrag_fault.Fault.Failpoint.hit "eval.join";
  bump stats (fun s -> s.Op_stats.fragment_joins <- s.Op_stats.fragment_joins + 1);
  let r1 = Fragment.root f1 and r2 = Fragment.root f2 in
  if r1 = r2 then
    Fragment.of_sorted_unchecked (Int_sorted.union (Fragment.nodes f1) (Fragment.nodes f2))
  else begin
    let path = Lca.path ctx.lca r1 r2 in
    Fragment.of_sorted_unchecked
      (Int_sorted.union
         (Int_sorted.union (Fragment.nodes f1) (Fragment.nodes f2))
         (Int_sorted.of_list path))
  end

let fragment ?stats ?cache ctx f1 f2 =
  match cache with
  | None -> compute_fragment ?stats ctx f1 f2
  | Some cache ->
      Join_cache.find_or_join cache ?stats ctx f1 f2 ~join:(fun () ->
          compute_fragment ?stats ctx f1 f2)

let fragment_many ?stats ?cache ctx = function
  | [] -> invalid_arg "Join.fragment_many: empty list"
  | f :: rest -> List.fold_left (fragment ?stats ?cache ctx) f rest

(* Upper bound on builder pre-allocation.  The true output cardinality of
   a pairwise join is at most |s1|·|s2|, but that product explodes on
   large operands (two 100k-element keyword sets would ask for 10^10
   buckets up front) while actual outputs collapse heavily; beyond this
   bound we let the hashtable grow organically. *)
let max_size_hint = 1 lsl 20

let product_hint c1 c2 =
  if c1 = 0 || c2 = 0 then 0
  else if c1 > max_size_hint / c2 then max_size_hint
  else c1 * c2

let pairwise_loop ?stats ?cache ?(deadline = Deadline.none) ctx ~keep s1 s2 =
  let out =
    Frag_set.Builder.create
      ~size_hint:(product_hint (Frag_set.cardinal s1) (Frag_set.cardinal s2))
      ()
  in
  Frag_set.iter
    (fun f1 ->
      (* One check per outer row: between whole joins, never inside
         [find_or_join], so an abort cannot leave a shared cache
         mid-update.  The inner loop allocates at most |s2| fragments
         between checks. *)
      Deadline.check deadline;
      Frag_set.iter
        (fun f2 ->
          let f = fragment ?stats ?cache ctx f1 f2 in
          bump stats (fun s -> s.Op_stats.candidates <- s.Op_stats.candidates + 1);
          if keep f then begin
            if not (Frag_set.Builder.add out f) then
              bump stats (fun s -> s.Op_stats.duplicates <- s.Op_stats.duplicates + 1)
          end
          else bump stats (fun s -> s.Op_stats.pruned <- s.Op_stats.pruned + 1))
        s2)
    s1;
  Frag_set.Builder.freeze out

let pairwise_general ?stats ?cache ?(trace = Trace.disabled) ?deadline ctx ~keep
    s1 s2 =
  if not (Trace.is_enabled trace) then
    pairwise_loop ?stats ?cache ?deadline ctx ~keep s1 s2
  else
    Trace.with_span trace
      ~attrs:
        [
          ("left", Json.Int (Frag_set.cardinal s1));
          ("right", Json.Int (Frag_set.cardinal s2));
        ]
      "pairwise-join"
      (fun () ->
        let out = pairwise_loop ?stats ?cache ?deadline ctx ~keep s1 s2 in
        Trace.add_attr trace "out" (Json.Int (Frag_set.cardinal out));
        out)

let pairwise ?stats ?cache ?trace ?deadline ctx s1 s2 =
  pairwise_general ?stats ?cache ?trace ?deadline ctx ~keep:(fun _ -> true) s1 s2

let pairwise_filtered ?stats ?cache ?trace ?deadline ctx ~keep s1 s2 =
  pairwise_general ?stats ?cache ?trace ?deadline ctx ~keep s1 s2
