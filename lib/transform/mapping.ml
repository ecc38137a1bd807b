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
  | Assoc_link_record of { record : string; left_set : string; right_set : string }
  | Assoc_parent_child
  | Assoc_link_segment of string

type t = {
  model : target_model;
  semantic : Semantic.t;
  assoc_reals : (string * assoc_real) list;
}

let assoc_real_opt t aname = List.assoc_opt (Field.canon aname) t.assoc_reals

let assoc_real t aname =
  match assoc_real_opt t aname with
  | Some r -> r
  | None -> invalid_arg (Fmt.str "Mapping: unknown association %s" aname)

let singular_set ename = "ALL-" ^ Field.canon ename

let pp_model ppf = function
  | Rel -> Fmt.string ppf "relational"
  | Net -> Fmt.string ppf "network"
  | Hier -> Fmt.string ppf "hierarchical"

let pp_real ppf = function
  | Assoc_relation r -> Fmt.pf ppf "relation %s" r
  | Assoc_set { set; member_fields } ->
      Fmt.pf ppf "set %s (selection via %s)" set
        (String.concat ", " member_fields)
  | Assoc_link_record { record; left_set; right_set } ->
      Fmt.pf ppf "link record %s (sets %s, %s)" record left_set right_set
  | Assoc_parent_child -> Fmt.string ppf "parent-child"
  | Assoc_link_segment s -> Fmt.pf ppf "link segment %s" s

let pp ppf t =
  Fmt.pf ppf "@[<v>model: %a@ %a@]" pp_model t.model
    (Fmt.list (fun ppf (a, r) -> Fmt.pf ppf "%s -> %a" a pp_real r))
    t.assoc_reals

(* Helpers over the semantic schema. *)

let single_key (e : Semantic.entity) =
  match e.key with
  | [ k ] -> k
  | _ ->
      invalid_arg
        (Fmt.str "Mapping: entity %s needs a single-field key for this model"
           e.ename)

let key_field_decl (e : Semantic.entity) k =
  match Field.find e.fields k with
  | Some f -> f
  | None -> invalid_arg (Fmt.str "Mapping: %s has no key field %s" e.ename k)

let is_characterizing schema (a : Semantic.assoc) =
  let right = Semantic.find_entity_exn schema a.right in
  match right.kind with
  | Semantic.Characterizing owner -> Field.name_equal owner a.left
  | Semantic.Defined -> false

let is_total schema (a : Semantic.assoc) =
  is_characterizing schema a
  || List.exists
       (function
         | Semantic.Total_right x -> Field.name_equal x a.aname
         | Semantic.Total_left _ | Semantic.Participation_limit _
         | Semantic.Field_not_null _ -> false)
       schema.Semantic.constraints

(* An association realizable as a plain owner-coupled set / physical
   parent-child: 1:N with no attributes of its own. *)
let is_simple (a : Semantic.assoc) =
  a.card = Semantic.One_to_many && a.fields = []

(* ------------------------------------------------------------------ *)
(* Relational realization                                              *)

let assoc_rel_fields schema (a : Semantic.assoc) =
  let le = Semantic.find_entity_exn schema a.left in
  let re = Semantic.find_entity_exn schema a.right in
  (* Dedup by name: an interposed entity's key embeds its owner's key
     fields, which must appear once in the association relation. *)
  let keys =
    List.fold_left
      (fun acc (f : Field.t) ->
        if List.exists (fun (g : Field.t) -> Field.name_equal g.name f.name) acc
        then acc
        else acc @ [ f ])
      []
      (List.map (key_field_decl le) le.key @ List.map (key_field_decl re) re.key)
  in
  (keys @ a.fields, List.map (fun (f : Field.t) -> f.name) keys)

let derive_relational schema =
  let entity_rels =
    List.map
      (fun (e : Semantic.entity) ->
        Rschema.rel_decl e.ename e.fields ~key:e.key)
      schema.Semantic.entities
  in
  let assoc_rels =
    List.map
      (fun (a : Semantic.assoc) ->
        let fields, key = assoc_rel_fields schema a in
        Rschema.rel_decl a.aname fields ~key)
      schema.Semantic.assocs
  in
  let mapping =
    { model = Rel;
      semantic = schema;
      assoc_reals =
        List.map
          (fun (a : Semantic.assoc) -> (a.aname, Assoc_relation a.aname))
          schema.Semantic.assocs;
    }
  in
  (mapping, Rschema.make (entity_rels @ assoc_rels))

(* ------------------------------------------------------------------ *)
(* Network realization                                                 *)

let derive_network schema =
  let reals =
    List.map
      (fun (a : Semantic.assoc) ->
        if is_simple a then
          let le = Semantic.find_entity_exn schema a.left in
          (* Member fields carrying the owner key have the owner key
             field names (stored if the member already declares them,
             virtual otherwise). *)
          (a.aname, Assoc_set { set = a.aname; member_fields = le.key })
        else
          ( a.aname,
            Assoc_link_record
              { record = a.aname;
                left_set = Field.canon a.left ^ "-" ^ Field.canon a.aname;
                right_set = Field.canon a.right ^ "-" ^ Field.canon a.aname;
              } ))
      schema.Semantic.assocs
  in
  let real_of aname = List.assoc (Field.canon aname) reals in
  let record_of_entity (e : Semantic.entity) =
    (* A virtual field per owner-key field of each simple association
       in which this entity is the member and does not itself store
       that field. *)
    let virtuals =
      List.concat_map
        (fun (a : Semantic.assoc) ->
          match real_of a.aname with
          | Assoc_set { set; member_fields }
            when Field.name_equal a.right e.ename ->
              let le = Semantic.find_entity_exn schema a.left in
              List.filter_map
                (fun mfield ->
                  if Field.mem e.fields mfield then None
                  else
                    let lkey = key_field_decl le mfield in
                    Some
                      { Nschema.vname = mfield;
                        vty = lkey.ty;
                        via_set = set;
                        source_field = lkey.name;
                      })
                member_fields
          | Assoc_set _ | Assoc_relation _ | Assoc_link_record _
          | Assoc_parent_child | Assoc_link_segment _ -> [])
        (Semantic.assocs_of schema e.ename)
    in
    Nschema.record_decl ~virtuals ~calc_key:e.key e.ename e.fields
  in
  let link_records =
    List.filter_map
      (fun (a : Semantic.assoc) ->
        match real_of a.aname with
        | Assoc_link_record { record; _ } ->
            let fields, key = assoc_rel_fields schema a in
            Some (Nschema.record_decl ~calc_key:key record fields)
        | Assoc_set _ | Assoc_relation _ | Assoc_parent_child
        | Assoc_link_segment _ -> None)
      schema.Semantic.assocs
  in
  let singular_sets =
    List.map
      (fun (e : Semantic.entity) ->
        Nschema.set_decl ~insertion:Nschema.Automatic ~retention:Nschema.Fixed
          ~name:(singular_set e.ename) ~owner:Nschema.System ~member:e.ename ())
      schema.Semantic.entities
  in
  let assoc_sets =
    List.concat_map
      (fun (a : Semantic.assoc) ->
        match real_of a.aname with
        | Assoc_set { set; member_fields } ->
            let le = Semantic.find_entity_exn schema a.left in
            let total = is_total schema a in
            [ Nschema.set_decl
                ~insertion:(if total then Nschema.Automatic else Nschema.Manual)
                ~retention:
                  (if is_characterizing schema a then Nschema.Fixed
                   else if total then Nschema.Mandatory
                   else Nschema.Optional)
                ~selection:(Nschema.By_value (List.combine le.key member_fields))
                ~name:set ~owner:(Nschema.Owner_record a.left) ~member:a.right
                ()
            ]
        | Assoc_link_record { record; left_set; right_set } ->
            let le = Semantic.find_entity_exn schema a.left in
            let re = Semantic.find_entity_exn schema a.right in
            let self_pairs (e : Semantic.entity) =
              List.map (fun k -> (k, k)) e.key
            in
            [ Nschema.set_decl ~insertion:Nschema.Automatic
                ~retention:Nschema.Fixed
                ~selection:(Nschema.By_value (self_pairs le))
                ~name:left_set ~owner:(Nschema.Owner_record a.left)
                ~member:record ();
              Nschema.set_decl ~insertion:Nschema.Automatic
                ~retention:Nschema.Fixed
                ~selection:(Nschema.By_value (self_pairs re))
                ~name:right_set ~owner:(Nschema.Owner_record a.right)
                ~member:record ();
            ]
        | Assoc_relation _ | Assoc_parent_child | Assoc_link_segment _ -> [])
      schema.Semantic.assocs
  in
  let records =
    List.map record_of_entity schema.Semantic.entities @ link_records
  in
  let mapping = { model = Net; semantic = schema; assoc_reals = reals } in
  (mapping, Nschema.make records (singular_sets @ assoc_sets))

(* ------------------------------------------------------------------ *)
(* Hierarchical realization                                            *)

(* The (first) simple total association under which an entity hangs as
   a physical child. *)
let hier_parent_assoc schema (e : Semantic.entity) =
  List.find_opt
    (fun (a : Semantic.assoc) ->
      Field.name_equal a.right e.ename && is_simple a && is_total schema a
      && not (Field.name_equal a.left e.ename))
    schema.Semantic.assocs

let derive_hier schema =
  let reals =
    List.map
      (fun (a : Semantic.assoc) ->
        let re = Semantic.find_entity_exn schema a.right in
        match hier_parent_assoc schema re with
        | Some pa when Field.name_equal pa.aname a.aname ->
            (a.aname, Assoc_parent_child)
        | Some _ | None -> (a.aname, Assoc_link_segment (Field.canon a.aname)))
      schema.Semantic.assocs
  in
  let real_of aname = List.assoc (Field.canon aname) reals in
  let entity_segs =
    List.map
      (fun (e : Semantic.entity) ->
        let parent =
          Option.map
            (fun (a : Semantic.assoc) -> a.left)
            (hier_parent_assoc schema e)
        in
        Hschema.seg_decl ?parent e.ename e.fields)
      schema.Semantic.entities
  in
  let link_segs =
    List.filter_map
      (fun (a : Semantic.assoc) ->
        match real_of a.aname with
        | Assoc_link_segment seg ->
            let re = Semantic.find_entity_exn schema a.right in
            let rkey = key_field_decl re (single_key re) in
            Some (Hschema.seg_decl ~parent:a.left seg (rkey :: a.fields))
        | Assoc_parent_child | Assoc_relation _ | Assoc_set _
        | Assoc_link_record _ -> None)
      schema.Semantic.assocs
  in
  let mapping = { model = Hier; semantic = schema; assoc_reals = reals } in
  (mapping, Hschema.make (entity_segs @ link_segs))

(* ------------------------------------------------------------------ *)
(* Load order: owners of total simple associations first.              *)

let load_order schema =
  let entities = schema.Semantic.entities in
  let depends_on (e : Semantic.entity) =
    List.filter_map
      (fun (a : Semantic.assoc) ->
        if Field.name_equal a.right e.ename && is_total schema a
           && not (Field.name_equal a.left e.ename)
        then Some (Field.canon a.left)
        else None)
      (Semantic.assocs_of schema e.ename)
  in
  let rec go placed pending fuel =
    if fuel = 0 then
      invalid_arg "Mapping.load_order: cyclic total associations"
    else
      match pending with
      | [] -> List.rev placed
      | _ ->
          let ready, blocked =
            List.partition
              (fun e ->
                List.for_all
                  (fun dep ->
                    List.exists
                      (fun (p : Semantic.entity) -> Field.name_equal p.ename dep)
                      placed)
                  (depends_on e))
              pending
          in
          if ready = [] then
            invalid_arg "Mapping.load_order: cyclic total associations"
          else go (List.rev ready @ placed) blocked (fuel - 1)
  in
  go [] entities (List.length entities + 1)

(* ------------------------------------------------------------------ *)
(* Incremental loading.

   A [loader] keeps a host replica plus the semantic-key -> database-key
   index the network and hierarchical models need across merges, so
   records can be fed in batches (live migration's lazy fault-in and
   backfill) instead of one bulk pass.  [loader_add] over every row and
   link of an instance is exactly the bulk load; the [load_*] entry
   points below are wrappers over it with [strict:true], which restores
   their historical [invalid_arg] behaviour.  Lenient mode (the
   default) instead skips a record or link it cannot place and reports
   it as a warning — during a live migration an endpoint can legally be
   gone by the time a link merges (a dual-applied cascade deleted
   it). *)

module Rec_tbl = Value.Key.Rec_tbl

type loader =
  | Lrel of { lsem : Semantic.t; mutable rdb : Rdb.t }
  | Lnet of { nmap : t; mutable ndb : Ndb.t; nindex : int Rec_tbl.t }
  | Lhier of { hmap : t; mutable hdb : Hdb.t; hindex : int Rec_tbl.t }

let key_repr key = String.concat "|" (List.map Value.show key)

let loader_relational schema rschema =
  Lrel { lsem = schema; rdb = Rdb.create rschema }

let loader_network map nschema =
  Lnet { nmap = map; ndb = Ndb.create nschema; nindex = Rec_tbl.create 64 }

let loader_hier map hschema =
  Lhier { hmap = map; hdb = Hdb.create hschema; hindex = Rec_tbl.create 64 }

let loader_rdb = function
  | Lrel l -> l.rdb
  | Lnet _ | Lhier _ -> invalid_arg "Mapping.loader_rdb: not relational"

let loader_ndb = function
  | Lnet l -> l.ndb
  | Lrel _ | Lhier _ -> invalid_arg "Mapping.loader_ndb: not network"

let loader_hdb = function
  | Lhier l -> l.hdb
  | Lrel _ | Lnet _ -> invalid_arg "Mapping.loader_hdb: not hierarchical"

let loader_set_rdb loader db =
  match loader with
  | Lrel l -> l.rdb <- db
  | Lnet _ | Lhier _ -> invalid_arg "Mapping.loader_set_rdb: not relational"

let loader_set_ndb loader db =
  match loader with
  | Lnet l -> l.ndb <- db
  | Lrel _ | Lhier _ -> invalid_arg "Mapping.loader_set_ndb: not network"

let loader_set_hdb loader db =
  match loader with
  | Lhier l -> l.hdb <- db
  | Lrel _ | Lnet _ -> invalid_arg "Mapping.loader_set_hdb: not hierarchical"

(* Semantic keys compared the way the scan loader compared them:
   [List.compare Value.compare], under which [Int 1] and [Float 1.0]
   are one key.  A printed [key_repr] would not do as an index key:
   [Value.show] prints floats with [%g], so distinct floats collide. *)
module Key_map = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

(* The inputs grouped by canonical name, each group in input order:
   [by_name l name] is the concatenation of every list [l] pairs with
   [name]. *)
let group_by_name (l : (string * 'a list) list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (n, xs) ->
      let n = Field.canon n in
      Hashtbl.replace tbl n
        (xs :: Option.value (Hashtbl.find_opt tbl n) ~default:[]))
    l;
  fun name ->
    match Hashtbl.find_opt tbl (Field.canon name) with
    | None -> []
    | Some groups -> List.concat (List.rev groups)

let loader_add ?(strict = false) loader ~rows ~links =
  let warnings = ref [] in
  let warn fmt = Fmt.kstr (fun s -> warnings := s :: !warnings) fmt in
  let rows_by = group_by_name rows and links_by = group_by_name links in
  let rows_for (e : Semantic.entity) = rows_by e.ename in
  let links_for (a : Semantic.assoc) = links_by a.aname in
  (* Each link of [a] under its right key; [keep] picks between two
     links with equal right keys (the first argument is the one met
     later in input order). *)
  let by_right_key ~keep (a : Semantic.assoc) =
    List.fold_left
      (fun m (lk : Sdb.link) ->
        Key_map.update lk.rkey
          (function None -> Some lk | Some old -> Some (keep lk old))
          m)
      Key_map.empty (links_for a)
  in
  (match loader with
  | Lrel l ->
      let schema = l.lsem in
      List.iter
        (fun (e : Semantic.entity) ->
          match rows_for e with
          | [] -> ()
          | rs -> l.rdb <- Rdb.load l.rdb e.ename rs)
        schema.Semantic.entities;
      List.iter
        (fun (a : Semantic.assoc) ->
          match links_for a with
          | [] -> ()
          | ls ->
              l.rdb <-
                Rdb.load l.rdb a.aname
                  (List.map (fun lk -> Sdb.link_row schema a lk) ls))
        schema.Semantic.assocs
  | Lnet l ->
      let map = l.nmap in
      let schema = map.semantic in
      let store rtype row k =
        match Ndb.store l.ndb rtype row with
        | Ok (db, key) ->
            l.ndb <- db;
            k key
        | Error s ->
            if strict then
              invalid_arg
                (Fmt.str "Mapping.load_network %s: %a" rtype Status.pp s)
            else warn "load_network %s: %a (skipped)" rtype Status.pp s
      in
      (* Seed rows of member entities with the owner-key value so that
         AUTOMATIC BY VALUE selection finds the right occurrence; the
         owner key comes from the links provided alongside the rows.
         When several links name the same member, the last one wins. *)
      let seeds_for (e : Semantic.entity) =
        List.filter_map
          (fun (a : Semantic.assoc) ->
            match assoc_real map a.aname with
            | Assoc_set { member_fields; _ }
              when Field.name_equal a.right e.ename && is_total schema a ->
                Some (member_fields, by_right_key ~keep:(fun lk _ -> lk) a)
            | Assoc_set _ | Assoc_relation _ | Assoc_link_record _
            | Assoc_parent_child | Assoc_link_segment _ -> None)
          (Semantic.assocs_of schema e.ename)
      in
      let seed seeds rkey row =
        List.fold_left
          (fun row (member_fields, owners) ->
            match Key_map.find_opt rkey owners with
            | Some (lk : Sdb.link) ->
                List.fold_left2
                  (fun row mfield v ->
                    if Row.mem row mfield then row else Row.set row mfield v)
                  row member_fields lk.lkey
            | None -> row)
          row seeds
      in
      List.iter
        (fun (e : Semantic.entity) ->
          match rows_for e with
          | [] -> ()
          | rs ->
              let seeds = seeds_for e in
              List.iter
                (fun row ->
                  let rkey = Sdb.key_of e row in
                  store e.ename (seed seeds rkey row) (fun key ->
                      Rec_tbl.replace l.nindex (Field.canon e.ename, rkey)
                        key))
                rs)
        (load_order schema);
      List.iter
        (fun (a : Semantic.assoc) ->
          match links_for a with
          | [] -> ()
          | ls -> (
              match assoc_real map a.aname with
              | Assoc_set { set; _ } when not (is_total schema a) ->
                  (* MANUAL membership: CONNECT each link. *)
                  List.iter
                    (fun (lk : Sdb.link) ->
                      let owner =
                        Rec_tbl.find_opt l.nindex (Field.canon a.left, lk.lkey)
                      and member =
                        Rec_tbl.find_opt l.nindex (Field.canon a.right, lk.rkey)
                      in
                      match (owner, member) with
                      | Some owner, Some member -> (
                          match Ndb.connect l.ndb ~set ~member ~owner with
                          | Ok db' -> l.ndb <- db'
                          | Error s ->
                              if strict then
                                invalid_arg
                                  (Fmt.str "Mapping.load_network connect %s: %a"
                                     set Status.pp s)
                              else
                                warn "load_network connect %s: %a (skipped)" set
                                  Status.pp s)
                      | _ ->
                          if strict then
                            invalid_arg
                              (Fmt.str
                                 "Mapping.load_network connect %s: missing \
                                  endpoint"
                                 set)
                          else
                            warn "load_network connect %s: missing endpoint %s \
                                  (skipped)"
                              set
                              (key_repr (lk.lkey @ lk.rkey)))
                    ls
              | Assoc_set _ -> ()
              | Assoc_link_record { record; _ } ->
                  List.iter
                    (fun lk ->
                      let row = Sdb.link_row schema a lk in
                      store record row (fun _ -> ()))
                    ls
              | Assoc_relation _ | Assoc_parent_child | Assoc_link_segment _ ->
                  invalid_arg "Mapping.load_network: non-network realization"))
        schema.Semantic.assocs
  | Lhier l ->
      let map = l.hmap in
      let schema = map.semantic in
      let insert parent stype row k =
        match Hdb.insert l.hdb ~parent stype row with
        | Ok (db, key) ->
            l.hdb <- db;
            k key
        | Error s ->
            if strict then
              invalid_arg
                (Fmt.str "Mapping.load_hier %s: %a" stype Status.pp s)
            else warn "load_hier %s: %a (skipped)" stype Status.pp s
      in
      List.iter
        (fun (e : Semantic.entity) ->
          match rows_for e with
          | [] -> ()
          | rs ->
              (* A child's parent link is the first link naming it. *)
              let parent_link =
                match hier_parent_assoc schema e with
                | None -> None
                | Some a -> Some (a, by_right_key ~keep:(fun _ old -> old) a)
              in
              List.iter
                (fun row ->
                  let rkey = Sdb.key_of e row in
                  let parent =
                    match parent_link with
                    | None -> Some None
                    | Some (a, links) -> (
                        match Key_map.find_opt rkey links with
                        | Some (lk : Sdb.link) -> (
                            match
                              Rec_tbl.find_opt l.hindex (Field.canon a.left, lk.lkey)
                            with
                            | Some p -> Some (Some p)
                            | None ->
                                if strict then
                                  invalid_arg
                                    (Fmt.str
                                       "Mapping.load_hier: %s instance has no \
                                        parent"
                                       e.ename)
                                else begin
                                  warn "load_hier %s: parent %s not loaded \
                                        (skipped)"
                                    e.ename (key_repr lk.lkey);
                                  None
                                end)
                        | None ->
                            if strict then
                              invalid_arg
                                (Fmt.str
                                   "Mapping.load_hier: %s instance has no \
                                    parent"
                                   e.ename)
                            else begin
                              warn "load_hier %s %s: no parent link (skipped)"
                                e.ename (key_repr rkey);
                              None
                            end)
                  in
                  match parent with
                  | None -> ()
                  | Some parent ->
                      insert parent e.ename row (fun key ->
                          Rec_tbl.replace l.hindex (Field.canon e.ename, rkey)
                            key))
                rs)
        (load_order schema);
      List.iter
        (fun (a : Semantic.assoc) ->
          match links_for a with
          | [] -> ()
          | ls -> (
              match assoc_real map a.aname with
              | Assoc_parent_child -> ()
              | Assoc_link_segment seg ->
                  let re = Semantic.find_entity_exn schema a.right in
                  let rkey_field = single_key re in
                  List.iter
                    (fun (lk : Sdb.link) ->
                      match
                        Rec_tbl.find_opt l.hindex (Field.canon a.left, lk.lkey)
                      with
                      | Some parent ->
                          let row =
                            Row.of_list
                              ((rkey_field, List.hd lk.rkey)
                              :: Row.to_list lk.attrs)
                          in
                          insert (Some parent) seg row (fun _ -> ())
                      | None ->
                          if strict then
                            invalid_arg
                              (Fmt.str
                                 "Mapping.load_hier segment %s: parent %s not \
                                  loaded"
                                 seg (key_repr lk.lkey))
                          else
                            warn "load_hier segment %s: parent %s not loaded \
                                  (skipped)"
                              seg (key_repr lk.lkey))
                    ls
              | Assoc_relation _ | Assoc_set _ | Assoc_link_record _ ->
                  invalid_arg "Mapping.load_hier: non-hierarchical realization"))
        schema.Semantic.assocs);
  List.rev !warnings

let all_rows_links sdb =
  let schema = Sdb.schema sdb in
  ( List.map
      (fun (e : Semantic.entity) -> (e.ename, Sdb.rows_silent sdb e.ename))
      schema.Semantic.entities,
    List.map
      (fun (a : Semantic.assoc) -> (a.aname, Sdb.links_silent sdb a.aname))
      schema.Semantic.assocs )

(* ------------------------------------------------------------------ *)
(* Relational load / extract                                           *)

let load_relational rschema sdb =
  let loader = loader_relational (Sdb.schema sdb) rschema in
  let rows, links = all_rows_links sdb in
  ignore (loader_add ~strict:true loader ~rows ~links);
  loader_rdb loader

let extract_relational schema rdb =
  let sdb = Sdb.create schema in
  let sdb =
    List.fold_left
      (fun sdb (e : Semantic.entity) ->
        List.fold_left
          (fun sdb row -> Sdb.insert_entity_exn sdb e.ename row)
          sdb
          (Rdb.rows_silent rdb e.ename))
      sdb (load_order schema)
  in
  List.fold_left
    (fun sdb (a : Semantic.assoc) ->
      let le = Semantic.find_entity_exn schema a.left in
      let re = Semantic.find_entity_exn schema a.right in
      List.fold_left
        (fun sdb row ->
          let pick keys = List.map (fun k -> Row.get_exn row k) keys in
          Sdb.link_exn
            ~attrs:(Row.project row (Field.names a.fields))
            sdb a.aname ~left:(pick le.key) ~right:(pick re.key))
        sdb
        (Rdb.rows_silent rdb a.aname))
    sdb schema.Semantic.assocs

(* ------------------------------------------------------------------ *)
(* Network load / extract                                              *)

let load_network mapping nschema sdb =
  let loader = loader_network mapping nschema in
  let rows, links = all_rows_links sdb in
  ignore (loader_add ~strict:true loader ~rows ~links);
  loader_ndb loader

let extract_network mapping ndb =
  let schema = mapping.semantic in
  let sdb = ref (Sdb.create schema) in
  List.iter
    (fun (e : Semantic.entity) ->
      List.iter
        (fun key ->
          match Ndb.view_silent ndb key with
          | Some row ->
              let row = Row.project row (Field.names e.fields) in
              sdb := Sdb.insert_entity_exn !sdb e.ename row
          | None -> ())
        (Ndb.all_keys_silent ndb e.ename))
    (load_order schema);
  List.iter
    (fun (a : Semantic.assoc) ->
      let le = Semantic.find_entity_exn schema a.left in
      let re = Semantic.find_entity_exn schema a.right in
      match assoc_real mapping a.aname with
      | Assoc_set { set; _ } ->
          List.iter
            (fun (owner, members) ->
              match Ndb.view_silent ndb owner with
              | None -> ()
              | Some orow ->
                  let left = List.map (fun k -> Row.get_exn orow k) le.key in
                  List.iter
                    (fun m ->
                      match Ndb.view_silent ndb m with
                      | Some mrow ->
                          let right =
                            List.map (fun k -> Row.get_exn mrow k) re.key
                          in
                          sdb := Sdb.link_exn !sdb a.aname ~left ~right
                      | None -> ())
                    members)
            (Ndb.occurrences ndb set)
      | Assoc_link_record { record; _ } ->
          List.iter
            (fun key ->
              match Ndb.view_silent ndb key with
              | Some row ->
                  let pick keys = List.map (fun k -> Row.get_exn row k) keys in
                  sdb :=
                    Sdb.link_exn
                      ~attrs:(Row.project row (Field.names a.fields))
                      !sdb a.aname ~left:(pick le.key) ~right:(pick re.key)
              | None -> ())
            (Ndb.all_keys_silent ndb record)
      | Assoc_relation _ | Assoc_parent_child | Assoc_link_segment _ ->
          invalid_arg "Mapping.extract_network: non-network realization")
    schema.Semantic.assocs;
  !sdb

(* ------------------------------------------------------------------ *)
(* Hierarchical load / extract                                         *)

let load_hier mapping hschema sdb =
  let loader = loader_hier mapping hschema in
  let rows, links = all_rows_links sdb in
  ignore (loader_add ~strict:true loader ~rows ~links);
  loader_hdb loader

let extract_hier mapping hdb =
  let schema = mapping.semantic in
  let sdb = ref (Sdb.create schema) in
  let nodes_of stype =
    List.filter
      (fun k ->
        match Hdb.stype_of hdb k with
        | Some t -> Field.name_equal t stype
        | None -> false)
      (Hdb.hierarchic_sequence_silent hdb)
  in
  List.iter
    (fun (e : Semantic.entity) ->
      List.iter
        (fun k ->
          match Hdb.get_silent hdb k with
          | Some (_, row) -> sdb := Sdb.insert_entity_exn !sdb e.ename row
          | None -> ())
        (nodes_of e.ename))
    (load_order schema);
  let key_of_node (e : Semantic.entity) k =
    match Hdb.get_silent hdb k with
    | Some (_, row) -> Some (Sdb.key_of e row)
    | None -> None
  in
  List.iter
    (fun (a : Semantic.assoc) ->
      let le = Semantic.find_entity_exn schema a.left in
      let re = Semantic.find_entity_exn schema a.right in
      match assoc_real mapping a.aname with
      | Assoc_parent_child ->
          List.iter
            (fun k ->
              match Hdb.parent_of hdb k with
              | Some p -> (
                  match key_of_node le p, key_of_node re k with
                  | Some left, Some right ->
                      sdb := Sdb.link_exn !sdb a.aname ~left ~right
                  | _, _ -> ())
              | None -> ())
            (nodes_of re.ename)
      | Assoc_link_segment seg ->
          let rkey_field = single_key re in
          List.iter
            (fun k ->
              match Hdb.get_silent hdb k, Hdb.parent_of hdb k with
              | Some (_, row), Some p -> (
                  match key_of_node le p with
                  | Some left ->
                      sdb :=
                        Sdb.link_exn
                          ~attrs:(Row.project row (Field.names a.fields))
                          !sdb a.aname ~left
                          ~right:[ Row.get_exn row rkey_field ]
                  | None -> ())
              | _, _ -> ())
            (nodes_of seg)
      | Assoc_relation _ | Assoc_set _ | Assoc_link_record _ ->
          invalid_arg "Mapping.extract_hier: non-hierarchical realization")
    schema.Semantic.assocs;
  !sdb
