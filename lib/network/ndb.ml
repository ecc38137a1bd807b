open Ccv_common
module Imap = Map.Make (Int)
module Smap = Map.Make (String)
module Iset = Set.Make (Int)
module Vmap = Map.Make (Value)

type entry = { rtype : string; row : Row.t }

type t = {
  schema : Nschema.t;
  records : entry Imap.t;
  sets : int list Imap.t Smap.t;
      (** set name -> owner key -> members.  Chains of CHRONOLOGICAL
          sets are stored newest-first so CONNECT is a prepend instead
          of an O(chain) append (bulk loads insert thousands of members
          into one hot occurrence); readers canonicalise through
          [canon_chain].  SORTED chains are stored in canonical
          order — their insertion is order-driven anyway. *)
  member_of : int Smap.t Imap.t;  (** member key -> set name -> owner key *)
  by_type : Iset.t Smap.t;  (** record type -> keys of that type *)
  eq_indexes : Iset.t Vmap.t Smap.t;
      (** "RTYPE.FIELD" -> stored value -> keys; only stored fields,
          so CONNECT/DISCONNECT cannot invalidate an entry *)
  next_key : int;
  counters : Counters.t;
}

let system_key = 0

let index_name rtype field = Field.canon rtype ^ "." ^ Field.canon field
let stored_value row f = Option.value (Row.get row f) ~default:Value.Null

let type_keys t rtype =
  Option.value (Smap.find_opt (Field.canon rtype) t.by_type) ~default:Iset.empty

(* Per-type record counts and equality-index bucket profiles, served
   from the maintained maps without touching the access counters —
   statistics snapshots must not perturb the workload they observe. *)
let type_counts t =
  List.rev
    (Smap.fold
       (fun rtype ks acc -> (rtype, Iset.cardinal ks) :: acc)
       t.by_type [])

let index_bucket_counts t ~rtype ~field =
  match Smap.find_opt (index_name rtype field) t.eq_indexes with
  | None -> None
  | Some vmap ->
      Some
        (List.rev
           (Vmap.fold (fun v ks acc -> (v, Iset.cardinal ks) :: acc) vmap []))

let create schema =
  { schema;
    records = Imap.empty;
    sets =
      List.fold_left
        (fun acc (s : Nschema.set_decl) ->
          let initial =
            match s.owner with
            | Nschema.System -> Imap.singleton system_key []
            | Nschema.Owner_record _ -> Imap.empty
          in
          Smap.add s.sname initial acc)
        Smap.empty schema.Nschema.sets;
    member_of = Imap.empty;
    by_type = Smap.empty;
    (* CALC keys behave like primary keys: index them from the start so
       duplicate checks stop scanning the extent. *)
    eq_indexes =
      List.fold_left
        (fun acc (r : Nschema.record_decl) ->
          List.fold_left
            (fun acc f -> Smap.add (index_name r.rname f) Vmap.empty acc)
            acc r.calc_key)
        Smap.empty schema.Nschema.records;
    next_key = 1;
    counters = Counters.create ();
  }

(* Indexed fields of a record type, as (field, index name) pairs. *)
let indexed_fields_of t rtype =
  let decl = Nschema.find_record_exn t.schema rtype in
  List.filter_map
    (fun (f : Field.t) ->
      let iname = index_name rtype f.name in
      if Smap.mem iname t.eq_indexes then Some (f.name, iname) else None)
    decl.fields

let eq_index_update op t rtype row key =
  List.fold_left
    (fun acc (fname, iname) ->
      let vmap = Smap.find iname acc in
      let v = stored_value row fname in
      let ks = Option.value (Vmap.find_opt v vmap) ~default:Iset.empty in
      let ks = op key ks in
      let vmap =
        if Iset.is_empty ks then Vmap.remove v vmap else Vmap.add v ks vmap
      in
      Smap.add iname vmap acc)
    t.eq_indexes
    (indexed_fields_of t rtype)

let index_add t rtype row key =
  { t with
    by_type =
      Smap.add (Field.canon rtype) (Iset.add key (type_keys t rtype)) t.by_type;
    eq_indexes = eq_index_update Iset.add t rtype row key;
  }

let index_remove t rtype row key =
  { t with
    by_type =
      Smap.add (Field.canon rtype)
        (Iset.remove key (type_keys t rtype))
        t.by_type;
    eq_indexes = eq_index_update Iset.remove t rtype row key;
  }

let schema t = t.schema
let counters t = t.counters

let get t key =
  match Imap.find_opt key t.records with
  | Some e ->
      Counters.record_read t.counters;
      Some (e.rtype, e.row)
  | None -> None

let rtype_of t key = Option.map (fun e -> e.rtype) (Imap.find_opt key t.records)

let owner_of t ~set ~member =
  match Imap.find_opt member t.member_of with
  | Some m -> Smap.find_opt (Field.canon set) m
  | None -> None

(* Resolve a record's full view (stored fields plus virtuals pulled
   from set owners) together with the access charge it represents: one
   read for the record plus one per owner actually fetched.  The
   caller decides when to pay — [view] pays immediately, the network
   interpreter accumulates a whole scan's charges and pays once per
   statement, trading per-record atomic increments for a single one. *)
let view_costed t key =
  match Imap.find_opt key t.records with
  | None -> None
  | Some e ->
      let cost = ref 1 in
      let decl = Nschema.find_record_exn t.schema e.rtype in
      let row =
        List.fold_left
          (fun row (v : Nschema.virtual_field) ->
            let value =
              match owner_of t ~set:v.via_set ~member:key with
              | None -> Value.Null
              | Some owner -> (
                  match Imap.find_opt owner t.records with
                  | None -> Value.Null
                  | Some oe ->
                      incr cost;
                      Option.value (Row.get oe.row v.source_field)
                        ~default:Value.Null)
            in
            Row.set row v.vname value)
          e.row decl.virtuals
      in
      Some (row, !cost)

let view t key =
  match view_costed t key with
  | None -> None
  | Some (row, cost) ->
      Counters.record_reads t.counters cost;
      Some row

let view_silent t key = Option.map fst (view_costed t key)

let all_keys_gen ~charge t rtype =
  let ks = Iset.elements (type_keys t rtype) in
  if charge then Counters.record_reads t.counters (List.length ks);
  ks

let all_keys t rtype = all_keys_gen ~charge:true t rtype
let all_keys_silent t rtype = all_keys_gen ~charge:false t rtype

(* Cursor support: keys of a type strictly after [key], lazily — the
   persistent FIND NEXT position is just the current database key, and
   repositioning is a log-time descent instead of a full rescan. *)
let keys_after t rtype key = Iset.to_seq_from (key + 1) (type_keys t rtype)

let first_key t rtype = Iset.min_elt_opt (type_keys t rtype)

let has_index t ~rtype ~field = Smap.mem (index_name rtype field) t.eq_indexes

let indexed_fields t rtype =
  match Nschema.find_record t.schema rtype with
  | None -> []
  | Some _ -> List.map fst (indexed_fields_of t rtype)

(* Build (or keep) an equality index over a stored field.  Virtual or
   unknown fields are refused silently so callers can request indexes
   speculatively from qualification conjuncts. *)
let ensure_index t ~rtype ~field =
  match Nschema.find_record t.schema rtype with
  | None -> t
  | Some decl ->
      if not (Field.mem decl.fields field) then t
      else
        let iname = index_name rtype field in
        if Smap.mem iname t.eq_indexes then t
        else
          let vmap =
            Iset.fold
              (fun key vmap ->
                match Imap.find_opt key t.records with
                | None -> vmap
                | Some e ->
                    let v = stored_value e.row field in
                    let ks =
                      Option.value (Vmap.find_opt v vmap) ~default:Iset.empty
                    in
                    Vmap.add v (Iset.add key ks) vmap)
              (type_keys t rtype) Vmap.empty
          in
          { t with eq_indexes = Smap.add iname vmap t.eq_indexes }

(* [lookup_eq] is the index probe: one read for the descent, the
   matching records themselves are charged by whoever views them. *)
let lookup_eq t ~rtype ~field v =
  match Smap.find_opt (index_name rtype field) t.eq_indexes with
  | None -> None
  | Some vmap ->
      Counters.record_read t.counters;
      Some
        (match Vmap.find_opt v vmap with
        | None -> []
        | Some ks -> Iset.elements ks)

let lookup_eq_silent t ~rtype ~field v =
  match Smap.find_opt (index_name rtype field) t.eq_indexes with
  | None -> None
  | Some vmap ->
      Some
        (match Vmap.find_opt v vmap with
        | None -> []
        | Some ks -> Iset.elements ks)

(* Stored chain -> canonical member order (see the [sets] doc). *)
let canon_chain (decl : Nschema.set_decl) ms =
  match decl.order with
  | Nschema.Chronological -> List.rev ms
  | Nschema.Sorted _ -> ms

let members_gen ~charge t ~set ~owner =
  let set = Field.canon set in
  match Smap.find_opt set t.sets with
  | None -> invalid_arg (Fmt.str "Ndb: unknown set %s" set)
  | Some occs ->
      let ms = Option.value (Imap.find_opt owner occs) ~default:[] in
      (* One read fetches the occurrence's member chain; the records
         themselves are charged when a consumer actually views them. *)
      if charge then Counters.record_read t.counters;
      canon_chain (Nschema.find_set_exn t.schema set) ms

let members t ~set ~owner = members_gen ~charge:true t ~set ~owner
let members_silent t ~set ~owner = members_gen ~charge:false t ~set ~owner

let occurrences t set =
  let set = Field.canon set in
  let decl = Nschema.find_set_exn t.schema set in
  let occs = Smap.find set t.sets in
  let chain okey =
    canon_chain decl (Option.value (Imap.find_opt okey occs) ~default:[])
  in
  match decl.owner with
  | Nschema.System -> [ (system_key, chain system_key) ]
  | Nschema.Owner_record orty ->
      List.map (fun okey -> (okey, chain okey)) (all_keys_silent t orty)

(* Sort-key extraction: prefer the live view, fall back to a supplied
   seed row (used at STORE time when virtuals are not yet resolvable). *)
let sort_key_of t ~seed keys member_key =
  let base =
    match view_silent t member_key with Some r -> r | None -> Row.empty
  in
  List.map
    (fun k ->
      match Row.get base k with
      | Some v when not (Value.is_null v) -> v
      | Some _ | None -> Option.value (Row.get seed k) ~default:Value.Null)
    keys

let key_compare = List.compare Value.compare

(* Insert [member] into the occurrence list per the set's order. *)
let place t (decl : Nschema.set_decl) ~seed existing member_key =
  match decl.order with
  | Nschema.Chronological -> Ok (existing @ [ member_key ])
  | Nschema.Sorted keys ->
      let new_key = sort_key_of t ~seed keys member_key in
      let dup =
        (not decl.dups_allowed)
        && List.exists
             (fun m ->
               key_compare (sort_key_of t ~seed:Row.empty keys m) new_key = 0)
             existing
      in
      if dup then Error (Status.Duplicate_key decl.sname)
      else
        let rec ins = function
          | [] -> [ member_key ]
          | m :: rest ->
              if key_compare (sort_key_of t ~seed:Row.empty keys m) new_key > 0
              then member_key :: m :: rest
              else m :: ins rest
        in
        Ok (ins existing)

(* Store a chain given in canonical member order, translating to the
   internal representation (newest-first for CHRONOLOGICAL sets). *)
let set_occurrence t set owner ms =
  let ms =
    match (Nschema.find_set_exn t.schema set).order with
    | Nschema.Chronological -> List.rev ms
    | Nschema.Sorted _ -> ms
  in
  let occs = Smap.find set t.sets in
  { t with sets = Smap.add set (Imap.add owner ms occs) t.sets }

let add_membership t ~set ~member ~owner =
  let m = Option.value (Imap.find_opt member t.member_of) ~default:Smap.empty in
  { t with member_of = Imap.add member (Smap.add set owner m) t.member_of }

let remove_membership t ~set ~member =
  match Imap.find_opt member t.member_of with
  | None -> t
  | Some m -> { t with member_of = Imap.add member (Smap.remove set m) t.member_of }

let connect_internal t (decl : Nschema.set_decl) ~seed ~member ~owner =
  match decl.order with
  | Nschema.Chronological ->
      (* Prepend to the newest-first chain: O(log owners) instead of
         the O(chain) append a canonical-order store would need —
         this is the per-record cost bulk loads and the live-migration
         fault-in pay for every stored member. *)
      ignore seed;
      Counters.record_write t.counters;
      let occs = Smap.find decl.sname t.sets in
      let chain = Option.value (Imap.find_opt owner occs) ~default:[] in
      let t =
        { t with
          sets =
            Smap.add decl.sname (Imap.add owner (member :: chain) occs) t.sets;
        }
      in
      Ok (add_membership t ~set:decl.sname ~member ~owner)
  | Nschema.Sorted _ -> (
      let existing = members_gen ~charge:false t ~set:decl.sname ~owner in
      match place t decl ~seed existing member with
      | Error s -> Error s
      | Ok ms ->
          Counters.record_write t.counters;
          let t = set_occurrence t decl.sname owner ms in
          Ok (add_membership t ~set:decl.sname ~member ~owner))

(* Owner selection for AUTOMATIC insertion. *)
let select_owner t (decl : Nschema.set_decl) ~resolve_current ~seed =
  match decl.owner with
  | Nschema.System -> Ok system_key
  | Nschema.Owner_record orty -> (
      match decl.selection with
      | Nschema.By_value pairs -> (
          let wanted =
            List.map
              (fun (ofield, mfield) ->
                (ofield, Option.value (Row.get seed mfield) ~default:Value.Null))
              pairs
          in
          match List.find_opt (fun (_, v) -> Value.is_null v) wanted with
          | Some (ofield, _) ->
              Error
                (Status.Constraint_violation
                   (Fmt.str "set %s: no selection value for %s" decl.sname
                      ofield))
          | None -> (
              let matches k fields =
                match Imap.find_opt k t.records with
                | Some e ->
                    List.for_all
                      (fun (ofield, v) ->
                        match Row.get e.row ofield with
                        | Some v' -> Value.equal v' v
                        | None -> false)
                      fields
                | None -> false
              in
              (* Probe the owner type's equality indexes where they
                 cover a selection field (CALC keys always do) — a
                 By-value selection against every stored member would
                 otherwise rescan the whole owner extent, making bulk
                 loads and migration drains quadratic.  Both paths
                 visit keys in ascending order, so the chosen owner is
                 the same either way. *)
              let indexed, unindexed =
                List.partition
                  (fun (ofield, _) ->
                    Smap.mem (index_name orty ofield) t.eq_indexes)
                  wanted
              in
              let candidate =
                match indexed with
                | [] ->
                    List.find_opt
                      (fun k ->
                        Counters.record_read t.counters;
                        matches k wanted)
                      (all_keys_silent t orty)
                | probes ->
                    let hits =
                      List.map
                        (fun (ofield, v) ->
                          Counters.record_read t.counters;
                          let vmap =
                            Smap.find (index_name orty ofield) t.eq_indexes
                          in
                          Option.value (Vmap.find_opt v vmap)
                            ~default:Iset.empty)
                        probes
                    in
                    let inter =
                      match hits with
                      | [] -> Iset.empty
                      | h :: rest -> List.fold_left Iset.inter h rest
                    in
                    List.find_opt
                      (fun k ->
                        match unindexed with
                        | [] -> Imap.mem k t.records
                        | fields ->
                            Counters.record_read t.counters;
                            matches k fields)
                      (Iset.elements inter)
              in
              match candidate with
              | Some k -> Ok k
              | None ->
                  (* The §3.1 guarantee: AUTOMATIC+MANDATORY insertion
                     fails when no owner exists. *)
                  Error
                    (Status.Constraint_violation
                       (Fmt.str "set %s: no owner matching %s" decl.sname
                          (String.concat ", "
                             (List.map
                                (fun (o, v) ->
                                  o ^ "=" ^ Value.to_display v)
                                wanted))))))
      | Nschema.By_current -> (
          match resolve_current decl.sname with
          | Some k -> Ok k
          | None -> Error Status.No_currency))

(* DUPLICATES NOT ALLOWED for the CALC key: probe the per-field
   equality indexes (auto-created for CALC keys) and intersect, one
   read per probe — instead of scanning every record of the type. *)
let calc_duplicate t (decl : Nschema.record_decl) stored =
  let all_indexed =
    List.for_all
      (fun f -> Smap.mem (index_name decl.rname f) t.eq_indexes)
      decl.calc_key
  in
  if all_indexed then
    let hits =
      List.map
        (fun f ->
          Counters.record_read t.counters;
          let vmap = Smap.find (index_name decl.rname f) t.eq_indexes in
          Option.value
            (Vmap.find_opt (stored_value stored f) vmap)
            ~default:Iset.empty)
        decl.calc_key
    in
    match hits with
    | [] -> false
    | h :: rest -> not (Iset.is_empty (List.fold_left Iset.inter h rest))
  else
    List.exists
      (fun k ->
        Counters.record_read t.counters;
        match Imap.find_opt k t.records with
        | Some e ->
            List.for_all
              (fun f ->
                Value.equal (stored_value e.row f) (stored_value stored f))
              decl.calc_key
        | None -> false)
      (all_keys_gen ~charge:false t decl.rname)

let store ?(resolve_current = fun _ -> None) t rtype row =
  let rtype = Field.canon rtype in
  let decl = Nschema.find_record_exn t.schema rtype in
  let seed = row in
  let stored = Row.coerce row decl.fields in
  if not (Row.conforms stored decl.fields) then
    Error (Status.Invalid_request (Fmt.str "bad record for %s" rtype))
  else if decl.calc_key <> [] && calc_duplicate t decl stored
  then Error (Status.Duplicate_key rtype)
  else
    let key = t.next_key in
    let auto_sets =
      List.filter
        (fun (s : Nschema.set_decl) -> s.insertion = Nschema.Automatic)
        (Nschema.sets_with_member t.schema rtype)
    in
    (* Resolve every owner before mutating, so a failed selection
       leaves the database untouched (programs take the DB from one
       consistent state to another, §1.1). *)
    let owners =
      List.fold_left
        (fun acc s ->
          match acc with
          | Error _ as e -> e
          | Ok pairs -> (
              match select_owner t s ~resolve_current ~seed with
              | Ok owner -> Ok ((s, owner) :: pairs)
              | Error e -> Error e))
        (Ok []) auto_sets
    in
    match owners with
    | Error s -> Error s
    | Ok pairs ->
        Counters.record_write t.counters;
        let t =
          { t with
            records = Imap.add key { rtype; row = stored } t.records;
            next_key = key + 1;
          }
        in
        let t = index_add t rtype stored key in
        let rec connect_all t = function
          | [] -> Ok t
          | (s, owner) :: rest -> (
              match connect_internal t s ~seed ~member:key ~owner with
              | Ok t -> connect_all t rest
              | Error e -> Error e)
        in
        (match connect_all t (List.rev pairs) with
        | Ok t -> Ok (t, key)
        | Error e -> Error e)

let connect t ~set ~member ~owner =
  let set = Field.canon set in
  let decl = Nschema.find_set_exn t.schema set in
  match rtype_of t member with
  | None -> Error Status.Not_found
  | Some rty when not (Field.name_equal rty decl.member) ->
      Error (Status.Invalid_request (Fmt.str "%s is not a member of %s" rty set))
  | Some _ ->
      if owner_of t ~set ~member <> None then
        Error (Status.Invalid_request (Fmt.str "already a member of %s" set))
      else connect_internal t decl ~seed:Row.empty ~member ~owner

let remove_from_occurrence t set owner member =
  let ms = members_gen ~charge:false t ~set ~owner in
  let t = set_occurrence t set owner (List.filter (fun m -> m <> member) ms) in
  remove_membership t ~set ~member

let disconnect t ~set ~member =
  let set = Field.canon set in
  let decl = Nschema.find_set_exn t.schema set in
  match decl.retention with
  | Nschema.Mandatory | Nschema.Fixed ->
      Error
        (Status.Constraint_violation
           (Fmt.str "set %s: DISCONNECT of a %s member" set
              (match decl.retention with
              | Nschema.Mandatory -> "MANDATORY"
              | Nschema.Fixed | Nschema.Optional -> "FIXED")))
  | Nschema.Optional -> (
      match owner_of t ~set ~member with
      | None -> Error Status.Not_found
      | Some owner ->
          Counters.record_write t.counters;
          Ok (remove_from_occurrence t set owner member))

let modify t key assigns =
  match Imap.find_opt key t.records with
  | None -> Error Status.Not_found
  | Some e ->
      let decl = Nschema.find_record_exn t.schema e.rtype in
      let bad =
        List.find_opt (fun (f, _) -> not (Field.mem decl.fields f)) assigns
      in
      (match bad with
      | Some (f, _) ->
          Error (Status.Invalid_request (Fmt.str "unknown field %s of %s" f e.rtype))
      | None ->
          Counters.record_write t.counters;
          let row =
            List.fold_left (fun row (f, v) -> Row.set row f v) e.row assigns
          in
          let t = { t with records = Imap.add key { e with row } t.records } in
          (* Keep equality indexes consistent with the new field values. *)
          let t =
            { t with
              eq_indexes = eq_index_update Iset.remove t e.rtype e.row key;
            }
          in
          let t =
            { t with eq_indexes = eq_index_update Iset.add t e.rtype row key }
          in
          (* Re-place the record in sorted occurrences it belongs to. *)
          let t =
            List.fold_left
              (fun t (s : Nschema.set_decl) ->
                match s.order, owner_of t ~set:s.sname ~member:key with
                | Nschema.Sorted _, Some owner ->
                    let without =
                      List.filter (fun m -> m <> key)
                        (members_gen ~charge:false t ~set:s.sname ~owner)
                    in
                    let t = set_occurrence t s.sname owner without in
                    (match place t s ~seed:Row.empty without key with
                    | Ok ms -> set_occurrence t s.sname owner ms
                    | Error _ -> set_occurrence t s.sname owner (without @ [ key ]))
                | (Nschema.Sorted _ | Nschema.Chronological), _ -> t)
              t
              (Nschema.sets_with_member t.schema e.rtype)
          in
          Ok t)

type erase_mode = Erase | Erase_all

let rec erase t mode key =
  match Imap.find_opt key t.records with
  | None -> Error Status.Not_found
  | Some e -> (
      let owned = Nschema.sets_owned_by t.schema e.rtype in
      let non_empty =
        List.filter
          (fun (s : Nschema.set_decl) ->
            members_gen ~charge:false t ~set:s.sname ~owner:key <> [])
          owned
      in
      match mode with
      | Erase when non_empty <> [] ->
          Error
            (Status.Constraint_violation
               (Fmt.str "ERASE %s: owns members in %s" e.rtype
                  (String.concat ", "
                     (List.map (fun (s : Nschema.set_decl) -> s.sname) non_empty))))
      | Erase | Erase_all -> (
          (* Cascade / disconnect owned members first. *)
          let rec handle_owned t = function
            | [] -> Ok t
            | (s : Nschema.set_decl) :: rest -> (
                let ms = members_gen ~charge:false t ~set:s.sname ~owner:key in
                let step t m =
                  match s.retention with
                  | Nschema.Optional ->
                      Counters.record_write t.counters;
                      Ok (remove_from_occurrence t s.sname key m)
                  | Nschema.Mandatory | Nschema.Fixed -> erase t Erase_all m
                in
                let rec go t = function
                  | [] -> Ok t
                  | m :: ms -> (
                      match step t m with Ok t -> go t ms | Error e -> Error e)
                in
                match go t ms with
                | Ok t -> handle_owned t rest
                | Error e -> Error e)
          in
          match handle_owned t non_empty with
          | Error e -> Error e
          | Ok t ->
              (* Remove the record from sets it belongs to. *)
              let t =
                List.fold_left
                  (fun t (s : Nschema.set_decl) ->
                    match owner_of t ~set:s.sname ~member:key with
                    | Some owner -> remove_from_occurrence t s.sname owner key
                    | None -> t)
                  t
                  (Nschema.sets_with_member t.schema e.rtype)
              in
              Counters.record_write t.counters;
              (* Re-fetch: a cascade cycle may already have removed it. *)
              let t =
                match Imap.find_opt key t.records with
                | None -> t
                | Some e -> index_remove t e.rtype e.row key
              in
              Ok { t with records = Imap.remove key t.records }))

type dump = {
  record_contents : (string * Row.t list) list;
  set_contents : (string * (Row.t option * Row.t) list) list;
}

let dump t =
  let record_contents =
    List.map
      (fun (r : Nschema.record_decl) ->
        let rows =
          List.filter_map (fun k -> view_silent t k) (all_keys_silent t r.rname)
        in
        (r.rname, List.sort Row.compare rows))
      t.schema.Nschema.records
  in
  let set_contents =
    List.map
      (fun (s : Nschema.set_decl) ->
        let pairs =
          List.concat_map
            (fun (owner, ms) ->
              let orow =
                if owner = system_key then None else view_silent t owner
              in
              List.filter_map
                (fun m ->
                  Option.map (fun mrow -> (orow, mrow)) (view_silent t m))
                ms)
            (occurrences t s.sname)
        in
        let cmp (o1, m1) (o2, m2) =
          let c = Option.compare Row.compare o1 o2 in
          if c <> 0 then c else Row.compare m1 m2
        in
        (s.sname, List.sort cmp pairs))
      t.schema.Nschema.sets
  in
  { record_contents; set_contents }

let equal_contents a b =
  let da = dump a and db = dump b in
  let eq_rows = List.for_all2 (fun (n1, r1) (n2, r2) ->
      String.equal n1 n2 && List.length r1 = List.length r2
      && List.for_all2 Row.equal r1 r2)
  in
  let eq_pairs (n1, p1) (n2, p2) =
    String.equal n1 n2 && List.length p1 = List.length p2
    && List.for_all2
         (fun (o1, m1) (o2, m2) ->
           Option.equal Row.equal o1 o2 && Row.equal m1 m2)
         p1 p2
  in
  List.length da.record_contents = List.length db.record_contents
  && eq_rows da.record_contents db.record_contents
  && List.length da.set_contents = List.length db.set_contents
  && List.for_all2 eq_pairs da.set_contents db.set_contents

let total_records t = Imap.cardinal t.records

(* Audit every index against a raw fold over the record arena — the
   reference scan path the indexes replace.  Empty list = consistent. *)
let verify_indexes t =
  let problems = ref [] in
  let note fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  (* by_type: exactly the keys of each type, no strays. *)
  let expected_by_type =
    Imap.fold
      (fun key e acc ->
        let ks = Option.value (Smap.find_opt e.rtype acc) ~default:Iset.empty in
        Smap.add e.rtype (Iset.add key ks) acc)
      t.records Smap.empty
  in
  Smap.iter
    (fun rtype ks ->
      let want =
        Option.value (Smap.find_opt rtype expected_by_type) ~default:Iset.empty
      in
      if not (Iset.equal ks want) then
        note "by_type[%s]: index {%s} vs scan {%s}" rtype
          (String.concat "," (List.map string_of_int (Iset.elements ks)))
          (String.concat "," (List.map string_of_int (Iset.elements want))))
    t.by_type;
  Smap.iter
    (fun rtype ks ->
      if not (Smap.mem rtype t.by_type) && not (Iset.is_empty ks) then
        note "by_type[%s]: %d keys missing from index" rtype (Iset.cardinal ks))
    expected_by_type;
  (* equality indexes: every entry points at a live record carrying the
     value, and every record appears under its value. *)
  Smap.iter
    (fun iname vmap ->
      match String.index_opt iname '.' with
      | None -> note "eq_index %s: malformed name" iname
      | Some i ->
          let rtype = String.sub iname 0 i in
          let field =
            String.sub iname (i + 1) (String.length iname - i - 1)
          in
          Vmap.iter
            (fun v ks ->
              Iset.iter
                (fun key ->
                  match Imap.find_opt key t.records with
                  | None -> note "eq_index %s: dangling key #%d" iname key
                  | Some e ->
                      if not (String.equal e.rtype rtype) then
                        note "eq_index %s: #%d is a %s" iname key e.rtype
                      else if not (Value.equal (stored_value e.row field) v)
                      then
                        note "eq_index %s: #%d maps %a but stores %a" iname key
                          Value.pp v Value.pp (stored_value e.row field))
                ks)
            vmap;
          Imap.iter
            (fun key e ->
              if String.equal e.rtype rtype then
                let v = stored_value e.row field in
                let present =
                  match Vmap.find_opt v vmap with
                  | Some ks -> Iset.mem key ks
                  | None -> false
                in
                if not present then
                  note "eq_index %s: #%d (%a) not indexed" iname key Value.pp v)
            t.records)
    t.eq_indexes;
  List.rev !problems

let pp ppf t =
  Imap.iter
    (fun key e -> Fmt.pf ppf "@[#%d %s %a@]@." key e.rtype Row.pp e.row)
    t.records;
  Smap.iter
    (fun sname occs ->
      let decl = Nschema.find_set_exn t.schema sname in
      Imap.iter
        (fun owner ms ->
          if ms <> [] then
            Fmt.pf ppf "@[%s: #%d -> [%a]@]@." sname owner
              Fmt.(list ~sep:(any "; ") int)
              (canon_chain decl ms))
        occs)
    t.sets
