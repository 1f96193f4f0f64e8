(** A read cursor over an in-memory XML document that tracks line and
    column for error reporting.  All parser layers read through this. *)

type t

val of_string : string -> t

val position : t -> Xml_error.position

val eof : t -> bool

val peek : t -> char option
(** Look at the next byte without consuming it. *)

val advance : t -> unit
(** Consume one byte.  No-op at end of input. *)

val next : t -> char
(** Consume and return the next byte.
    @raise Xml_error.Parse_error at end of input. *)

val expect : t -> char -> unit
(** Consume the next byte, failing unless it equals the argument. *)

val expect_string : t -> string -> unit
(** Consume an exact byte sequence. *)

val looking_at : t -> string -> bool
(** True iff the upcoming bytes start with the given string. *)

val skip_whitespace : t -> unit
(** Consume any run of space, tab, CR, LF. *)

val take_while : t -> (char -> bool) -> string
(** Consume the maximal prefix of bytes satisfying the predicate. *)

val error : t -> string -> 'a
(** Fail at the current position. *)
