(* CLOCK_MONOTONIC in nanoseconds, without allocation. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
