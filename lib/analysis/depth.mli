(** Navigation-depth / demand-closure pass: maximum association-hop
    depth per program, checked against the live-migration demand cap. *)

open Ccv_common
open Ccv_abstract

val default_cap : int
(** The hop depth [Migrate.translate] expands a request's demand
    closure through (2). *)

val hops_of_query : Apattern.t -> int
(** Association crossings in one access sequence: a paired
    [Assoc_via; Via_assoc] counts once, an unpaired association step
    counts once, SELF/THROUGH count zero. *)

val max_hops : Aprog.t -> int

val deepest : Aprog.t -> (int * Apattern.t) option
(** The deepest query with its hop count ([None] on a query-free
    program). *)

val render_path : Apattern.t -> string
(** ["A -> B -> C"], the targets of the sequence. *)

val check : ?cap:int -> Aprog.t -> (unit, Diagnostic.t) result
(** [Error d] (code AD001, [d.path] = the offending access path) when
    the program navigates deeper than [cap] (default
    {!default_cap}). *)
