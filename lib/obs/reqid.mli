(** Request-id minting and validation.

    Every request handled by the server or the CLI corpus path carries
    a request id: either the client's inbound [X-Request-Id] (when it
    passes {!valid}) or a freshly minted [req-<seed>-<n>].  The seed
    hashes pid + process start time, and [n] is a process-wide atomic
    counter, so minting is domain-safe and ids never collide within a
    process. *)

val mint : unit -> string
(** A fresh [req-<seed>-<n>] id. *)

val valid : string -> bool
(** Accept client-supplied ids only when 1–128 chars drawn from
    [[A-Za-z0-9._-]] — anything else (empty, oversized, spaces,
    control bytes, header-splitting attempts) is rejected and a fresh
    id minted instead. *)

val accept_or_mint : string option -> string
(** [accept_or_mint inbound] returns the inbound id when it's
    {!valid}, else {!mint}[ ()]. *)
