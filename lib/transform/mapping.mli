(** Realization of a semantic schema in each concrete 1979 data model,
    with data loaders in both directions.

    This is the keystone the paper's framework turns on: the semantic
    model is the "intermediate form ... used as the target for the
    decompilation process and the source of a compilation process"
    (section 3.1), so each entity/association must have a concrete
    realization per model:

    - {b relational}: entity → relation; association → relation holding
      both keys plus attributes (Figure 3.1a).
    - {b network}: entity → record type with a CALC key and a
      SYSTEM-owned singular set (the Maryland ALL-DIV device);
      attribute-free 1:N association → owner-coupled set (selection BY
      VALUE of the owner key); association with attributes or M:N →
      link record owned through two sets (Figure 3.1b's
      COURSE'S-OFFERING / SEMESTER'S-OFFERING shape).
    - {b hierarchical}: a total attribute-free 1:N association →
      physical parent-child; every other association → a link segment
      under the left entity carrying the right key and the attributes.

    Restrictions (checked, [Invalid_argument] otherwise): network and
    hierarchical realizations need single-field entity keys. *)

open Ccv_common
open Ccv_model
module Rschema = Ccv_relational.Rschema
module Rdb = Ccv_relational.Rdb
module Nschema = Ccv_network.Nschema
module Ndb = Ccv_network.Ndb
module Hschema = Ccv_hier.Hschema
module Hdb = Ccv_hier.Hdb

type target_model = Rel | Net | Hier

type assoc_real =
  | Assoc_relation of string
  | Assoc_set of { set : string; member_fields : string list }
      (** [member_fields]: the member-side fields (stored or virtual)
          carrying the owner key, aligned with the owner's key fields;
          used for BY VALUE selection *)
  | Assoc_link_record of { record : string; left_set : string; right_set : string }
  | Assoc_parent_child
  | Assoc_link_segment of string

type t = {
  model : target_model;
  semantic : Semantic.t;
  assoc_reals : (string * assoc_real) list;
}

val assoc_real : t -> string -> assoc_real

(** [None] when the name is not an association (e.g. an entity). *)
val assoc_real_opt : t -> string -> assoc_real option

(** Singular-set name for an entity in the network realization. *)
val singular_set : string -> string

val pp_model : Format.formatter -> target_model -> unit
val pp : Format.formatter -> t -> unit

(** Schema derivation. *)

val derive_relational : Semantic.t -> t * Rschema.t
val derive_network : Semantic.t -> t * Nschema.t
val derive_hier : Semantic.t -> t * Hschema.t

(** Entities in an order where every total-association owner precedes
    its members (load order). *)
val load_order : Semantic.t -> Semantic.entity list

(** Data loaders (semantic instance → concrete instance). *)

val load_relational : Rschema.t -> Sdb.t -> Rdb.t
val load_network : t -> Nschema.t -> Sdb.t -> Ndb.t
val load_hier : t -> Hschema.t -> Sdb.t -> Hdb.t

(** Incremental loading for live migration: a [loader] keeps a host
    replica plus the semantic-key → database-key index across merges,
    so batches of records can be appended as they are translated
    (fault-in and backfill) instead of bulk-loading the whole instance
    up front.  The bulk loaders above are [loader_add ~strict:true]
    over every row and link. *)

type loader

val loader_relational : Semantic.t -> Rschema.t -> loader
val loader_network : t -> Nschema.t -> loader
val loader_hier : t -> Hschema.t -> loader

(** [loader_add loader ~rows ~links] merges the given rows (by entity)
    and links (by association) into the replica, in {!load_order};
    member rows are seeded for BY VALUE set selection from the links
    provided in the same call, so a row's owning link must ride with
    it.  Returns warnings for records or links it could not place
    (e.g. an endpoint concurrently deleted), in input order; with
    [strict:true] those raise [Invalid_argument] instead, the
    historical bulk behaviour.

    One call costs O((rows + links) log links) on top of the engine
    inserts: the inputs are grouped by name once, and each
    association's links are indexed by right key.  Keys match under
    [List.compare Value.compare], so a link naming [Int 1] finds the
    row keyed [Float 1.0].  When several links name the same member,
    BY VALUE seeding takes the {e last} one and a hierarchical child's
    parent is the {e first} one. *)
val loader_add :
  ?strict:bool -> loader ->
  rows:(string * Row.t list) list ->
  links:(string * Sdb.link list) list -> string list

(** The replica under the loader; [Invalid_argument] on a model
    mismatch.  The setters push back a replica that advanced outside
    the loader (dual-applied writes during serving) so later merges
    append to the current state. *)

val loader_rdb : loader -> Rdb.t
val loader_ndb : loader -> Ndb.t
val loader_hdb : loader -> Hdb.t
val loader_set_rdb : loader -> Rdb.t -> unit
val loader_set_ndb : loader -> Ndb.t -> unit
val loader_set_hdb : loader -> Hdb.t -> unit

(** Extractors (concrete instance → semantic instance); with the
    loaders these give round-trip data translation between any two
    models. *)

val extract_relational : Semantic.t -> Rdb.t -> Sdb.t
val extract_network : t -> Ndb.t -> Sdb.t
val extract_hier : t -> Hdb.t -> Sdb.t
