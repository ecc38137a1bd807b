(** Typed atomic values shared by every data model in the system.

    The 1979 setting is COBOL-ish: character strings with PICTUREs,
    integers, and a handful of numerics.  We model four carrier types
    plus an explicit [Null], which the paper needs to discuss existence
    constraints ("CNO and S can not have null values", section 3.1). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = Tint | Tfloat | Tstr | Tbool

val equal : t -> t -> bool

(** Total order: [Null] sorts first, then by type, then by value.
    Used for set sort keys, relational ORDER BY and comparisons. *)
val compare : t -> t -> int

val equal_ty : ty -> ty -> bool
val compare_ty : ty -> ty -> int

(** [ty_of v] is [None] for [Null], otherwise the carrier type. *)
val ty_of : t -> ty option

(** [conforms v ty] holds when [v] is [Null] or carries type [ty]. *)
val conforms : t -> ty -> bool

val is_null : t -> bool

(** Default (zero-ish) value of a type, used when a restructuring must
    invent a value (e.g. the "null instructor" of section 3.1). *)
val default : ty -> t

(** Arithmetic on numeric values; raises [Invalid_argument] on a type
    clash.  Int/float are promoted to float when mixed. *)
val add : t -> t -> t

val sub : t -> t -> t
val mul : t -> t -> t

(** String concatenation on [Str]; raises [Invalid_argument] otherwise. *)
val concat : t -> t -> t

val pp : Format.formatter -> t -> unit
val pp_ty : Format.formatter -> ty -> unit
val show : t -> string
val show_ty : ty -> string

(** Render without quotes, for terminal/report output. *)
val to_display : t -> string

(** Parse a literal the way the DDL/DML lexer sees it: quoted strings,
    integers, floats, [TRUE]/[FALSE], [NULL]. *)
val of_literal : string -> t option

(** Hash compatible with [equal]. *)
val hash : t -> int

(** Record keys (one value per key field) under [compare]'s equality,
    for hashing: [Key.equal a b] iff [List.compare compare a b = 0],
    so [Int 1] and [Float 1.0] are one key while distinct floats stay
    distinct.  [Key.hash] agrees with it — numerics hash by their
    float value.  A key printed with {!show} would not do as an
    identity: [%g] renders [1.0] and [1.0000001] alike. *)
module Key : sig
  type nonrec t = t list

  val equal : t -> t -> bool
  val hash : t -> int

  (** Tables keyed by a record key. *)
  module Tbl : Hashtbl.S with type key = t

  (** Tables keyed by a record: (canonical entity name, key). *)
  module Rec_tbl : Hashtbl.S with type key = string * t

  (** Tables keyed by a link: (canonical association name, left key,
      right key). *)
  module Link_tbl : Hashtbl.S with type key = string * t * t
end
