(** Sets of integers represented as strictly increasing immutable arrays.

    This is the backing representation for document fragments: a fragment
    is the sorted array of its pre-order node identifiers.  All operations
    treat their inputs as read-only and return fresh arrays.  Every input
    array must be strictly increasing; [of_list] and [of_array] sort and
    de-duplicate arbitrary input. *)

type t = int array

val empty : t

val is_empty : t -> bool

val singleton : int -> t

val of_list : int list -> t
(** [of_list xs] sorts and de-duplicates [xs]. *)

val of_array : int array -> t
(** [of_array a] sorts and de-duplicates a copy of [a]; [a] is unchanged. *)

val to_list : t -> int list

val cardinal : t -> int

val min_elt : t -> int
(** Smallest element.  @raise Invalid_argument on the empty set. *)

val max_elt : t -> int
(** Largest element.  @raise Invalid_argument on the empty set. *)

val position : int -> t -> int
(** Index of the element in the array, or [-1]; O(log n). *)

val mem : int -> t -> bool
(** Binary search; O(log n). *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order: by cardinality, then lexicographic.  Suitable for use as
    a [Map]/[Set] key. *)

val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]; O(|a|+|b|). *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val add : int -> t -> t

val remove : int -> t -> t

val union_many : t list -> t
(** Union of any number of sets; O(total log k) via pairwise merging. *)

val hash : t -> int
(** Polynomial hash consistent with [equal]. *)

val iter : (int -> unit) -> t -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val for_all : (int -> bool) -> t -> bool

val exists : (int -> bool) -> t -> bool

val filter : (int -> bool) -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints as [⟨n1, n2, …⟩], matching the paper's fragment notation. *)
