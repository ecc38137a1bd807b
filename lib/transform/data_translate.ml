open Ccv_common
open Ccv_model

(* Chunked parallel map: stage bulk row/link rewriting on a worker
   pool when one is supplied (replica preparation for a many-shard
   service hands the serving pool down here).  [Workpool.map_list]
   preserves input order and falls back to inline execution when the
   caller is itself a pool worker, so translation behaves identically
   with and without the pool — only the wall clock changes.  The
   working slots are capped at the hardware domain count: translation
   is pure CPU, and striding it over more slots than the host has
   cores runs slower than sequential (BENCH_PR5 measured 0.31x with 8
   pool slots on a smaller host). *)

let pmap ?pool f xs =
  match pool with
  | Some p when Workpool.size p > 1 ->
      Workpool.map_list ~max_workers:(Domain.recommended_domain_count ()) p f
        xs
  | Some _ | None -> List.map f xs

(* Rebuild an instance under a new schema through a per-entity row
   rewriter and a per-assoc link rewriter.  Row and link computation is
   staged per entity/assoc (in parallel under [pool]); the
   constraint-checked inserts stay sequential because every insert
   threads the persistent instance.  Elements the new schema's
   declarative constraints reject are dropped with a warning — the
   paper's "conversion when not all information is preserved" caveat
   surfaces here instead of crashing the translation. *)
let rebuild ?pool ~old_db ~new_schema ~entity_rows ~assoc_links () =
  let staged_rows =
    pmap ?pool
      (fun (e : Semantic.entity) -> (e, entity_rows e))
      new_schema.Semantic.entities
  in
  let staged_links =
    pmap ?pool
      (fun (a : Semantic.assoc) -> (a, assoc_links a))
      new_schema.Semantic.assocs
  in
  let db = ref (Sdb.create new_schema) in
  let dropped = ref [] in
  List.iter
    (fun ((e : Semantic.entity), rows) ->
      let db', rejected = Sdb.insert_all !db e.ename rows in
      db := db';
      List.iter
        (fun (row, s) ->
          dropped :=
            Fmt.str "%s %a dropped: %a" e.ename Row.pp row Status.pp s
            :: !dropped)
        rejected)
    staged_rows;
  List.iter
    (fun ((a : Semantic.assoc), links) ->
      let db', rejected = Sdb.link_all !db a.aname links in
      db := db';
      List.iter
        (fun s ->
          dropped :=
            Fmt.str "%s link dropped: %a" a.aname Status.pp s :: !dropped)
        rejected)
    staged_links;
  ignore old_db;
  (!db, List.rev !dropped)

let same_links old_db (a : Semantic.assoc) =
  List.map
    (fun (l : Sdb.link) -> (l.lkey, l.rkey, l.attrs))
    (Sdb.links_silent old_db a.aname)

let translate ?pool db op =
  let old_schema = Sdb.schema db in
  match Schema_change.apply old_schema op with
  | Error msg -> Error msg
  | Ok new_schema -> (
      let keep_rows (e : Semantic.entity) = Sdb.rows_silent db e.ename in
      let keep_links (a : Semantic.assoc) = same_links db a in
      match op with
      | Schema_change.Add_constraint _ ->
          let db', dropped =
            rebuild ?pool ~old_db:db ~new_schema ~entity_rows:keep_rows
              ~assoc_links:keep_links ()
          in
          Ok (db', dropped @ Sdb.validate db')
      | Schema_change.Drop_constraint _ | Schema_change.Widen_cardinality _ ->
          Ok
            (rebuild ?pool ~old_db:db ~new_schema ~entity_rows:keep_rows
               ~assoc_links:keep_links ())
      | Schema_change.Rename_entity { from_; to_ } ->
          let entity_rows (e : Semantic.entity) =
            let source = if Field.name_equal e.ename to_ then from_ else e.ename in
            Sdb.rows_silent db source
          in
          Ok
            (rebuild ?pool ~old_db:db ~new_schema ~entity_rows
               ~assoc_links:keep_links ())
      | Schema_change.Rename_field { entity; from_; to_ } ->
          let entity_rows (e : Semantic.entity) =
            let rows = Sdb.rows_silent db e.ename in
            if Field.name_equal e.ename entity then
              List.map (fun r -> Row.rename r ~from_ ~to_) rows
            else rows
          in
          Ok
            (rebuild ?pool ~old_db:db ~new_schema ~entity_rows
               ~assoc_links:keep_links ())
      | Schema_change.Rename_assoc { from_; to_ } ->
          let assoc_links (a : Semantic.assoc) =
            let source = if Field.name_equal a.aname to_ then from_ else a.aname in
            List.map
              (fun (l : Sdb.link) -> (l.lkey, l.rkey, l.attrs))
              (Sdb.links_silent db source)
          in
          Ok
            (rebuild ?pool ~old_db:db ~new_schema ~entity_rows:keep_rows
               ~assoc_links ())
      | Schema_change.Add_field { entity; field; default } ->
          let entity_rows (e : Semantic.entity) =
            let rows = Sdb.rows_silent db e.ename in
            if Field.name_equal e.ename entity then
              List.map (fun r -> Row.set r field.Field.name default) rows
            else rows
          in
          Ok
            (rebuild ?pool ~old_db:db ~new_schema ~entity_rows
               ~assoc_links:keep_links ())
      | Schema_change.Drop_field { entity; field } ->
          let entity_rows (e : Semantic.entity) =
            let rows = Sdb.rows_silent db e.ename in
            if Field.name_equal e.ename entity then
              List.map (fun r -> Row.remove r field) rows
            else rows
          in
          let db', dropped =
            rebuild ?pool ~old_db:db ~new_schema ~entity_rows
              ~assoc_links:keep_links ()
          in
          Ok
            ( db',
              Fmt.str "values of %s.%s are not preserved" entity field
              :: dropped )
      | Schema_change.Restrict_extension { entity; qual } ->
          let removed = ref 0 in
          let entity_rows (e : Semantic.entity) =
            let rows = Sdb.rows_silent db e.ename in
            if Field.name_equal e.ename entity then
              List.filter
                (fun r ->
                  let drop = Cond.eval ~env:Cond.no_env r qual in
                  if drop then incr removed;
                  not drop)
                rows
            else rows
          in
          (* Links touching dropped instances fail the endpoint check
             in [rebuild] and are reported as dropped. *)
          let db', dropped =
            rebuild ?pool ~old_db:db ~new_schema ~entity_rows
              ~assoc_links:keep_links ()
          in
          Ok
            ( db',
              Fmt.str "%d %s instance(s) removed during conversion" !removed
                entity
              :: dropped )
      | Schema_change.Interpose
          { through; new_entity; group_by; left_assoc; right_assoc } ->
          let a = Semantic.find_assoc_exn old_schema through in
          let owner = Semantic.find_entity_exn old_schema a.left in
          let member = Semantic.find_entity_exn old_schema a.right in
          let links = Sdb.links_silent db through in
          let warnings = ref [] in
          (* Owner key + grouped values for each linked member. *)
          let n_key_of (l : Sdb.link) =
            match Sdb.find_entity db member.ename l.rkey with
            | None -> None
            | Some mrow ->
                Some
                  ( l.lkey,
                    List.map
                      (fun g ->
                        Option.value (Row.get mrow g) ~default:Value.Null)
                      group_by )
          in
          (* the per-link owner/group lookups are the bulk of the
             interposition; stage them chunked on the pool, then dedup
             sequentially in link order (hashed on the owner key and
             group values, so the dedup is linear in the link count;
             the owner key's arity is fixed, so concatenation is
             unambiguous) *)
          let keyed_links = pmap ?pool n_key_of links in
          let n_instances =
            let seen = Value.Key.Tbl.create 64 in
            List.rev
              (List.fold_left
                 (fun acc -> function
                   | Some ((okey, gvals) as pair) ->
                       let k = okey @ gvals in
                       if Value.Key.Tbl.mem seen k then acc
                       else begin
                         Value.Key.Tbl.replace seen k ();
                         pair :: acc
                       end
                   | None -> acc)
                 [] keyed_links)
          in
          let nfields, _ =
            Schema_change.interpose_entity_fields old_schema ~through ~group_by
          in
          let entity_rows (e : Semantic.entity) =
            if Field.name_equal e.ename new_entity then
              List.map
                (fun (okey, gvals) ->
                  Row.of_list
                    (List.combine (Field.names nfields) (okey @ gvals)))
                n_instances
            else if Field.name_equal e.ename member.ename then
              List.map
                (fun r ->
                  List.fold_left (fun r g -> Row.remove r g) r group_by)
                (Sdb.rows_silent db member.ename)
            else Sdb.rows_silent db e.ename
          in
          let linked_rkeys = Value.Key.Tbl.create 64 in
          List.iter
            (fun (l : Sdb.link) -> Value.Key.Tbl.replace linked_rkeys l.rkey ())
            links;
          List.iter
            (fun mrow ->
              let rkey = Sdb.key_of member mrow in
              if not (Value.Key.Tbl.mem linked_rkeys rkey) then
                warnings :=
                  Fmt.str "%s %s: grouped values lost (no %s partner)"
                    member.ename
                    (String.concat "," (List.map Value.show rkey))
                    owner.ename
                  :: !warnings)
            (Sdb.rows_silent db member.ename);
          let assoc_links (a' : Semantic.assoc) =
            if Field.name_equal a'.aname left_assoc then
              List.filter_map
                (fun (okey, gvals) -> Some (okey, okey @ gvals, Row.empty))
                n_instances
            else if Field.name_equal a'.aname right_assoc then
              List.filter_map
                (fun l ->
                  match n_key_of l with
                  | Some (okey, gvals) -> Some (okey @ gvals, l.rkey, Row.empty)
                  | None -> None)
                links
            else same_links db a'
          in
          let db', dropped =
            rebuild ?pool ~old_db:db ~new_schema ~entity_rows ~assoc_links ()
          in
          Ok (db', List.rev !warnings @ dropped)
      | Schema_change.Collapse
          { left_assoc; right_assoc; removed_entity; restored_assoc } ->
          let ra = Semantic.find_assoc_exn old_schema right_assoc in
          let n = Semantic.find_entity_exn old_schema removed_entity in
          let owner = Semantic.find_entity_exn old_schema
              (Semantic.find_assoc_exn old_schema left_assoc).left
          in
          let member = Semantic.find_entity_exn old_schema ra.right in
          let own_fields =
            List.filter
              (fun (f : Field.t) ->
                not (List.exists (Field.name_equal f.name) owner.key))
              n.fields
          in
          let right_links = Sdb.links_silent db right_assoc in
          (* last matching link wins, as the original fold had it;
             hashed on the member key so the per-member lookup is O(1)
             instead of a scan over every right link *)
          let n_key_by_member = Value.Key.Tbl.create 64 in
          List.iter
            (fun (l : Sdb.link) -> Value.Key.Tbl.replace n_key_by_member l.rkey l.lkey)
            right_links;
          let n_of_member rkey =
            match Value.Key.Tbl.find_opt n_key_by_member rkey with
            | Some lkey -> Sdb.find_entity db n.ename lkey
            | None -> None
          in
          let entity_rows (e : Semantic.entity) =
            if Field.name_equal e.ename member.ename then
              List.map
                (fun mrow ->
                  match n_of_member (Sdb.key_of member mrow) with
                  | Some nrow ->
                      List.fold_left
                        (fun mrow (f : Field.t) ->
                          Row.set mrow f.name
                            (Option.value (Row.get nrow f.name)
                               ~default:Value.Null))
                        mrow own_fields
                  | None ->
                      List.fold_left
                        (fun mrow (f : Field.t) ->
                          Row.set mrow f.name Value.Null)
                        mrow own_fields)
                (Sdb.rows_silent db member.ename)
            else Sdb.rows_silent db e.ename
          in
          let assoc_links (a' : Semantic.assoc) =
            if Field.name_equal a'.aname restored_assoc then
              (* Compose: member -> N -> owner. *)
              List.filter_map
                (fun (l : Sdb.link) ->
                  match Sdb.find_entity db n.ename l.lkey with
                  | Some nrow ->
                      let okey =
                        List.map
                          (fun k ->
                            Option.value (Row.get nrow k) ~default:Value.Null)
                          owner.key
                      in
                      Some (okey, l.rkey, Row.empty)
                  | None -> None)
                right_links
            else same_links db a'
          in
          Ok (rebuild ?pool ~old_db:db ~new_schema ~entity_rows ~assoc_links ()))

let translate_exn db op =
  match translate db op with
  | Ok (db, _) -> db
  | Error msg -> invalid_arg ("Data_translate.translate_exn: " ^ msg)

let translate_all ?pool db ops =
  List.fold_left
    (fun acc op ->
      Result.bind acc (fun (db, warnings) ->
          Result.map
            (fun (db', w) -> (db', warnings @ w))
            (translate ?pool db op)))
    (Ok (db, [])) ops

(* Record-granular translation for live migration: assemble just the
   given rows and links of [snapshot] into a sub-instance on the same
   schema and push it through the whole op pipeline.  The caller is
   responsible for closure — a row's link partners must ride in the
   same slice when an op computes across them (Interpose groupings,
   Collapse field pulls), otherwise the per-record result can differ
   from bulk translation.  Always sequential: slices are small and the
   callers are themselves pool workers. *)
let translate_slice ~snapshot ~ops ~rows ~links =
  let schema = Sdb.schema snapshot in
  let sub = ref (Sdb.create schema) in
  let insert_err = ref None in
  List.iter
    (fun (ename, rs) ->
      let db', rejected = Sdb.insert_all !sub ename rs in
      sub := db';
      match rejected with
      | (row, s) :: _ when !insert_err = None ->
          insert_err :=
            Some (Fmt.str "slice %s %a: %a" ename Row.pp row Status.pp s)
      | _ -> ())
    rows;
  List.iter
    (fun (aname, ls) ->
      let db', rejected =
        Sdb.link_all !sub aname
          (List.map (fun (l : Sdb.link) -> (l.lkey, l.rkey, l.attrs)) ls)
      in
      sub := db';
      match rejected with
      | s :: _ when !insert_err = None ->
          insert_err := Some (Fmt.str "slice link %s: %a" aname Status.pp s)
      | _ -> ())
    links;
  match !insert_err with
  | Some msg -> Error ("Data_translate.translate_slice: " ^ msg)
  | None -> translate_all !sub ops
