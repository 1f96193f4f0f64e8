module Trace = Xfrag_obs.Trace
module Json = Xfrag_obs.Json

let bump stats f = match stats with None -> () | Some s -> f s

let round stats = bump stats (fun s -> s.Op_stats.fixpoint_rounds <- s.Op_stats.fixpoint_rounds + 1)

(* Wrap one fixed-point round in a [round] span carrying the working-set
   size going in and out.  [n] is the 1-based round number. *)
let traced_round trace n in_size f =
  if not (Trace.is_enabled trace) then f ()
  else
    Trace.with_span trace
      ~attrs:[ ("n", Json.Int n); ("in", Json.Int in_size) ]
      "round"
      (fun () ->
        let out = f () in
        Trace.add_attr trace "out" (Json.Int (Frag_set.cardinal out));
        out)

let traced_fixed_point trace name seed_size f =
  if not (Trace.is_enabled trace) then f ()
  else
    Trace.with_span trace
      ~attrs:[ ("seed", Json.Int seed_size) ]
      name
      (fun () ->
        let out = f () in
        Trace.add_attr trace "out" (Json.Int (Frag_set.cardinal out));
        out)

(* One pairwise-join round.  Every element of [acc] is a join of members
   of [seed], hence contains some member as a subfragment, hence absorbs
   it — so the round result is a superset of [acc] and no explicit union
   is needed. *)
let step ?stats ?cache ?trace ?deadline ctx ~keep acc seed =
  Join.pairwise_filtered ?stats ?cache ?trace ?deadline ctx ~keep acc seed

let naive ?stats ?cache ?(trace = Trace.disabled) ?(deadline = Deadline.none)
    ?keep ctx set =
  let name, keep =
    match keep with
    | None -> ("fixed-point", fun _ -> true)
    | Some keep -> ("fixed-point:pruned", keep)
  in
  let seed = Frag_set.filter keep set in
  if Frag_set.is_empty seed then seed
  else
    traced_fixed_point trace name (Frag_set.cardinal seed) (fun () ->
        let rec go n acc =
          Deadline.check deadline;
          round stats;
          let next =
            traced_round trace n (Frag_set.cardinal acc) (fun () ->
                step ?stats ?cache ~trace ~deadline ctx ~keep acc seed)
          in
          if Frag_set.cardinal next = Frag_set.cardinal acc then acc
          else go (n + 1) next
        in
        go 1 seed)

(* Delta iteration: only last round's discoveries are joined against the
   seed.  Complete because every k-fold join factors as a (k−1)-fold
   join ⋈ one seed member (associativity/commutativity), and that prefix
   was some round's discovery. *)
let semi_naive ?stats ?cache ?(trace = Trace.disabled)
    ?(deadline = Deadline.none) ?(keep = fun _ -> true) ctx set =
  let seed = Frag_set.filter keep set in
  if Frag_set.is_empty seed then seed
  else
    traced_fixed_point trace "fixed-point:semi-naive" (Frag_set.cardinal seed)
      (fun () ->
        let rec go n acc delta =
          if Frag_set.is_empty delta then acc
          else begin
            Deadline.check deadline;
            round stats;
            let fresh =
              traced_round trace n (Frag_set.cardinal delta) (fun () ->
                  let produced =
                    Join.pairwise_filtered ?stats ?cache ~trace ~deadline ctx
                      ~keep delta seed
                  in
                  Frag_set.diff produced acc)
            in
            go (n + 1) (Frag_set.union acc fresh) fresh
          end
        in
        go 1 seed seed)

let iterate ?stats ?cache ?trace ?deadline ctx n set =
  if n < 1 then invalid_arg "Fixed_point.iterate: n must be at least 1";
  let rec go acc remaining =
    if remaining = 0 then acc
    else begin
      round stats;
      go
        (step ?stats ?cache ?trace ?deadline ctx ~keep:(fun _ -> true) acc set)
        (remaining - 1)
    end
  in
  go set (n - 1)

(* Theorem 1: k = |⊖(seed)| rounds reach the fixed point with no
   per-round convergence check.  The claim is only valid for single-node
   seeds (see the erratum in the interface); [checked] appends a
   convergence loop that makes the result correct for arbitrary seeds at
   the price of at least one confirming round. *)
let with_reduction ?stats ?cache ?(trace = Trace.disabled)
    ?(deadline = Deadline.none) ?(keep = fun _ -> true) ?reduced
    ?(checked = true) ctx set =
  let seed = Frag_set.filter keep set in
  if Frag_set.is_empty seed then seed
  else
    traced_fixed_point trace "fixed-point:reduced" (Frag_set.cardinal seed)
      (fun () ->
        (* ⊖ of a general set can be empty — mutual subsumption eliminates
           every member (e.g. {⟨0,2,3⟩, ⟨0,1,2,4⟩, ⟨0,2,3,4⟩, ⟨0,1,2,3,4⟩}
           under a flat root) — so floor the round count at one. *)
        let reduced_seed =
          match reduced with
          | Some r -> r
          | None -> Reduce.reduce ?stats ?cache ~trace ctx seed
        in
        let k = max 1 (Frag_set.cardinal reduced_seed) in
        if Trace.is_enabled trace then Trace.add_attr trace "rounds" (Json.Int k);
        let rec fast_forward n acc remaining =
          if remaining <= 0 then (n, acc)
          else begin
            Deadline.check deadline;
            round stats;
            let next =
              traced_round trace n (Frag_set.cardinal acc) (fun () ->
                  step ?stats ?cache ~trace ~deadline ctx ~keep acc seed)
            in
            fast_forward (n + 1) next (remaining - 1)
          end
        in
        let n, acc = fast_forward 1 seed (k - 1) in
        if not checked then acc
        else begin
          let rec converge n acc =
            Deadline.check deadline;
            round stats;
            let next =
              traced_round trace n (Frag_set.cardinal acc) (fun () ->
                  step ?stats ?cache ~trace ~deadline ctx ~keep acc seed)
            in
            if Frag_set.cardinal next = Frag_set.cardinal acc then acc
            else converge (n + 1) next
          in
          converge n acc
        end)

