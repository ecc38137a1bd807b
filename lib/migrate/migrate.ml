open Ccv_common
open Ccv_model
open Ccv_abstract
open Ccv_transform
open Ccv_convert

type config = {
  batch : int;
  lag : int;
  fail_at_slot : (int * int) option;
}

let default_config = { batch = 64; lag = 1; fail_at_slot = None }

type t = {
  shard_id : int;
  config : config;
  snapshot : Sdb.t;
  ops : Schema_change.op list;
  target_schema : Semantic.t;
  target_model : Mapping.target_model;
  loader : Mapping.loader;
  slots : (string * Row.t) array;
  slot_of : (string * string, int) Hashtbl.t;
  blocks : (string, int * int) Hashtbl.t;
      (* canonical entity -> its contiguous slot range [lo, hi) *)
  done_ : bool array;
  mutable n_done : int;
  mutable n_faulted : int;  (* slots drained by request fault-in *)
  mutable n_backfilled : int;  (* slots drained by the backfill driver *)
  mutable n_deferred : int;  (* read-only requests served without fault-in *)
  mutable n_translated : int;  (* rows assembled into translated slices *)
  mutable watermark : int;  (* slots [0, watermark) scanned by backfill *)
  mutable failed : string option;
  mutable warnings : string list;
  merged : (string * string, unit) Hashtbl.t;
      (* target rows already appended to the replica *)
  seen_links : (string * string * string, unit) Hashtbl.t;
      (* (assoc, left key, right key) of target links already appended *)
  partner_index : (string * string, (string * Value.t list) list) Hashtbl.t;
      (* record -> link partners over the immutable snapshot *)
  mutable row_index : (string * string, int * Row.t) Hashtbl.t option;
      (* (entity, key) -> extent position and row over the snapshot;
         lets a slice collect exactly its closure instead of filtering
         every full extent per batch *)
  mutable link_index : (string * string, (int * Sdb.link) list) Hashtbl.t option;
      (* (assoc, left key) -> that endpoint's links with their
         link-set positions, same purpose *)
}

type summary = {
  total_slots : int;
  faulted : int;
  backfilled : int;
  deferred : int;
  translated_rows : int;
  mig_warnings : string list;
  mig_failed : string option;
}

let sum_summaries l =
  List.fold_left
    (fun a s ->
      { total_slots = a.total_slots + s.total_slots;
        faulted = a.faulted + s.faulted;
        backfilled = a.backfilled + s.backfilled;
        deferred = a.deferred + s.deferred;
        translated_rows = a.translated_rows + s.translated_rows;
        mig_warnings = a.mig_warnings @ s.mig_warnings;
        mig_failed =
          (if a.mig_failed = None then s.mig_failed else a.mig_failed);
      })
    { total_slots = 0;
      faulted = 0;
      backfilled = 0;
      deferred = 0;
      translated_rows = 0;
      mig_warnings = [];
      mig_failed = None;
    }
    l

let key_repr key = String.concat "|" (List.map Value.show key)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make_loader target_model target_schema =
  match target_model with
  | Mapping.Rel ->
      let _, rschema = Mapping.derive_relational target_schema in
      Mapping.loader_relational target_schema rschema
  | Mapping.Net ->
      let map, nschema = Mapping.derive_network target_schema in
      Mapping.loader_network map nschema
  | Mapping.Hier ->
      let map, hschema = Mapping.derive_hier target_schema in
      Mapping.loader_hier map hschema

(* Record -> link partners over the immutable snapshot, in one pass
   over its links: per-record link scans would make an entity drain
   quadratic in the instance size. *)
let build_partner_index sdb =
  let idx = Hashtbl.create 1024 in
  let add ename key partner =
    let k = (Field.canon ename, key_repr key) in
    Hashtbl.replace idx k
      (partner :: Option.value (Hashtbl.find_opt idx k) ~default:[])
  in
  List.iter
    (fun (a : Semantic.assoc) ->
      List.iter
        (fun (l : Sdb.link) ->
          add a.left l.lkey (Field.canon a.right, l.rkey);
          add a.right l.rkey (Field.canon a.left, l.lkey))
        (Sdb.links_silent sdb a.aname))
    (Sdb.schema sdb).Semantic.assocs;
  idx

(* Slot order.  Entity blocks follow [Mapping.load_order], so owners
   still drain first.  Within a block, records are stably sorted by the
   smallest slot among their link partners in earlier blocks: one
   owner's members sit together, and a backfill batch's two-hop
   closure spans a few owners' members instead of one owner per
   record.  Records without such a partner keep snapshot order at the
   end of their block.  A pure function of the snapshot. *)
let order_slots sdb partner_index =
  let slot_of = Hashtbl.create 1024 and blocks = Hashtbl.create 16 in
  let next = ref 0 in
  let block (e : Semantic.entity) =
    let en = Field.canon e.ename in
    let earliest_partner kr =
      List.fold_left
        (fun acc (pn, pkey) ->
          match Hashtbl.find_opt slot_of (pn, key_repr pkey) with
          | Some i -> min acc i
          | None -> acc)
        max_int
        (Option.value (Hashtbl.find_opt partner_index (en, kr)) ~default:[])
    in
    let ranked =
      List.stable_sort
        (fun (a, _, _) (b, _, _) -> Int.compare a b)
        (List.map
           (fun row ->
             let kr = key_repr (Sdb.key_of e row) in
             (earliest_partner kr, kr, row))
           (Sdb.rows_silent sdb e.ename))
    in
    let lo = !next in
    List.iter
      (fun (_, kr, _) ->
        Hashtbl.replace slot_of (en, kr) !next;
        incr next)
      ranked;
    Hashtbl.replace blocks en (lo, !next);
    List.map (fun (_, _, row) -> (e.ename, row)) ranked
  in
  let slots =
    Array.of_list
      (List.concat_map block (Mapping.load_order (Sdb.schema sdb)))
  in
  (slots, slot_of, blocks)

let start ?(config = default_config) ~shard_id (req : Supervisor.request) sdb =
  match Supervisor.prepare_live req sdb with
  | Error e -> Error e
  | Ok (servable, target_schema) ->
      let partner_index = build_partner_index sdb in
      let slots, slot_of, blocks = order_slots sdb partner_index in
      let t =
        { shard_id;
          config;
          snapshot = sdb;
          ops = req.Supervisor.ops;
          target_schema;
          target_model = req.Supervisor.target_model;
          loader = make_loader req.Supervisor.target_model target_schema;
          slots;
          slot_of;
          blocks;
          done_ = Array.make (Array.length slots) false;
          n_done = 0;
          n_faulted = 0;
          n_backfilled = 0;
          n_deferred = 0;
          n_translated = 0;
          watermark = 0;
          failed = None;
          warnings = [];
          merged = Hashtbl.create 256;
          seen_links = Hashtbl.create 256;
          partner_index;
          row_index = None;
          link_index = None;
        }
      in
      Ok (t, servable)

let total t = Array.length t.slots
let n_done t = t.n_done
let failed t = t.failed
let mark_failed t msg = if t.failed = None then t.failed <- Some msg

let slot_order t = Array.to_list t.slots

let summary t =
  { total_slots = total t;
    faulted = t.n_faulted;
    backfilled = t.n_backfilled;
    deferred = t.n_deferred;
    translated_rows = t.n_translated;
    mig_warnings = List.rev t.warnings;
    mig_failed = t.failed;
  }

(* ------------------------------------------------------------------ *)
(* Engine replica sync.  Dual-applied writes advance the shard's
   target database outside the loader; push the current replica in
   before a merge and read it back after, so merges append to the
   served state. *)

let engine_db t : Engines.database =
  match t.target_model with
  | Mapping.Rel -> Engines.Rel_db (Mapping.loader_rdb t.loader)
  | Mapping.Net -> Engines.Net_db (Mapping.loader_ndb t.loader)
  | Mapping.Hier -> Engines.Hier_db (Mapping.loader_hdb t.loader)

let sync_engine_db t (db : Engines.database) =
  match (t.target_model, db) with
  | Mapping.Rel, Engines.Rel_db rdb -> Mapping.loader_set_rdb t.loader rdb
  | Mapping.Net, Engines.Net_db ndb -> Mapping.loader_set_ndb t.loader ndb
  | Mapping.Hier, Engines.Hier_db hdb -> Mapping.loader_set_hdb t.loader hdb
  | _ -> invalid_arg "Migrate.sync_engine_db: model mismatch"

(* ------------------------------------------------------------------ *)
(* How a source entity appears in the target schema (identity through
   most ops, renamed by [Rename_entity], gone after [Collapse]). *)

let entity_image ops ename =
  List.fold_left
    (fun acc op ->
      match acc with
      | None -> None
      | Some name -> (
          match op with
          | Schema_change.Rename_entity { from_; to_ }
            when Field.name_equal from_ name -> Some to_
          | Schema_change.Collapse { removed_entity; _ }
            when Field.name_equal removed_entity name -> None
          | _ -> Some name))
    (Some ename) ops

(* Target entities that are no source entity's image (e.g. an
   Interpose's new entity): their translated rows exist only as a
   function of the slice, so every one the slice produces merges. *)
let derived_entities t =
  let source_images =
    List.filter_map
      (fun (e : Semantic.entity) -> entity_image t.ops e.ename)
      (Sdb.schema t.snapshot).Semantic.entities
  in
  List.filter
    (fun (e : Semantic.entity) ->
      not (List.exists (Field.name_equal e.ename) source_images))
    t.target_schema.Semantic.entities

(* ------------------------------------------------------------------ *)
(* Slice closure and merge.

   A batch [B] of source records is translated together with its link
   partners (hop 1) and their partners (hop 2), so ops that compute
   across links (Interpose groupings, Collapse field pulls) see the
   same context they would in a bulk translation.  Rows merged into
   the replica: images of B and hop 1 plus all derived-entity rows —
   hop 2 is context only.  Covering two hops makes every hop-1 row's
   own link neighbourhood complete; schemas whose ops reach deeper
   than two associations are out of scope (ours have at most two). *)

let partners_of t (ename, key) =
  Option.value
    (Hashtbl.find_opt t.partner_index (Field.canon ename, key_repr key))
    ~default:[]

(* Positional indexes over the immutable snapshot, memoized: slice
   assembly looks up exactly the closure's rows
   and links instead of filtering every full extent and link set per
   batch, which made a drain quadratic in the instance size.  The
   recorded positions let a slice keep extent/link-set order, so the
   assembled sub-instance is byte-identical to the filtering one. *)
let row_index t =
  match t.row_index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create 1024 in
      let schema = Sdb.schema t.snapshot in
      List.iter
        (fun (e : Semantic.entity) ->
          List.iteri
            (fun i row ->
              Hashtbl.replace idx
                (Field.canon e.ename, key_repr (Sdb.key_of e row))
                (i, row))
            (Sdb.rows_silent t.snapshot e.ename))
        schema.Semantic.entities;
      t.row_index <- Some idx;
      idx

let link_index t =
  match t.link_index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create 1024 in
      let schema = Sdb.schema t.snapshot in
      List.iter
        (fun (a : Semantic.assoc) ->
          List.iteri
            (fun i (l : Sdb.link) ->
              let k = (Field.canon a.aname, key_repr l.lkey) in
              Hashtbl.replace idx k
                ((i, l) :: Option.value (Hashtbl.find_opt idx k) ~default:[]))
            (Sdb.links_silent t.snapshot a.aname))
        schema.Semantic.assocs;
      t.link_index <- Some idx;
      idx

let in_position_order xs =
  List.map snd (List.sort (fun (i, _) (j, _) -> compare (i : int) j) xs)

let merge_batch t ~via (batch : int list) =
  if batch = [] then ()
  else begin
    let schema = Sdb.schema t.snapshot in
    let seen : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
    let frontier = ref [] in
    let add (ename, key) =
      let ck = (Field.canon ename, key_repr key) in
      if not (Hashtbl.mem seen ck) then begin
        Hashtbl.replace seen ck ();
        frontier := (ename, key) :: !frontier
      end
    in
    let b_records =
      List.map
        (fun slot ->
          let ename, row = t.slots.(slot) in
          let e = Semantic.find_entity_exn schema ename in
          (ename, Sdb.key_of e row))
        batch
    in
    List.iter add b_records;
    let hop1 = ref [] in
    let expand collect =
      let prev = !frontier in
      frontier := [];
      List.iter
        (fun r ->
          List.iter
            (fun p ->
              let ck = (fst p, key_repr (snd p)) in
              if not (Hashtbl.mem seen ck) then begin
                Hashtbl.replace seen ck ();
                frontier := p :: !frontier;
                if collect then hop1 := p :: !hop1
              end)
            (partners_of t r))
        prev
    in
    expand true;
    expand false;
    (* Assemble the slice: rows for every seen record, links with both
       endpoints inside — via the memoized snapshot indexes, so the
       work is proportional to the closure, not the instance. *)
    let seen_by_entity : (string, string list) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (en, kr) () ->
        Hashtbl.replace seen_by_entity en
          (kr :: Option.value (Hashtbl.find_opt seen_by_entity en) ~default:[]))
      seen;
    let seen_keys en =
      Option.value (Hashtbl.find_opt seen_by_entity en) ~default:[]
    in
    let ridx = row_index t and lidx = link_index t in
    let slice_rows =
      List.map
        (fun (e : Semantic.entity) ->
          let en = Field.canon e.ename in
          ( e.ename,
            in_position_order
              (List.filter_map
                 (fun kr -> Hashtbl.find_opt ridx (en, kr))
                 (seen_keys en)) ))
        schema.Semantic.entities
    in
    let slice_links =
      List.map
        (fun (a : Semantic.assoc) ->
          let an = Field.canon a.aname in
          let right = Field.canon a.right in
          ( a.aname,
            in_position_order
              (List.concat_map
                 (fun kr ->
                   List.filter
                     (fun (_, (l : Sdb.link)) ->
                       Hashtbl.mem seen (right, key_repr l.rkey))
                     (Option.value (Hashtbl.find_opt lidx (an, kr)) ~default:[]))
                 (seen_keys (Field.canon a.left))) ))
        schema.Semantic.assocs
    in
    t.n_translated <-
      List.fold_left
        (fun acc (_, rows) -> acc + List.length rows)
        t.n_translated slice_rows;
    (match
       Data_translate.translate_slice ~snapshot:t.snapshot ~ops:t.ops
         ~rows:slice_rows ~links:slice_links
     with
    | Error msg -> mark_failed t msg
    | Ok (tslice, _slice_warnings) ->
        (* Accept the images of B and hop 1 (insert-if-absent). *)
        let accept = b_records @ List.rev !hop1 in
        let accepted_rows : (string, Row.t list) Hashtbl.t =
          Hashtbl.create 16
        in
        let push tbl k v =
          Hashtbl.replace tbl k (v :: (try Hashtbl.find tbl k with Not_found -> []))
        in
        List.iter
          (fun (ename, key) ->
            match entity_image t.ops ename with
            | None -> ()
            | Some tname -> (
                let ck = (Field.canon tname, key_repr key) in
                if not (Hashtbl.mem t.merged ck) then
                  match Sdb.find_entity tslice tname key with
                  | Some trow ->
                      Hashtbl.replace t.merged ck ();
                      push accepted_rows (Field.canon tname) trow
                  | None ->
                      (* legitimately absent: e.g. filtered out by a
                         Restrict_extension *)
                      ()))
          accept;
        List.iter
          (fun (e : Semantic.entity) ->
            List.iter
              (fun trow ->
                let ck =
                  (Field.canon e.ename, key_repr (Sdb.key_of e trow))
                in
                if not (Hashtbl.mem t.merged ck) then begin
                  Hashtbl.replace t.merged ck ();
                  push accepted_rows (Field.canon e.ename) trow
                end)
              (Sdb.rows_silent tslice e.ename))
          (derived_entities t);
        (* Links: both endpoints merged, not seen before. *)
        let accepted_links : (string, Sdb.link list) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter
          (fun (a : Semantic.assoc) ->
            List.iter
              (fun (l : Sdb.link) ->
                let lk =
                  (Field.canon a.aname, key_repr l.lkey, key_repr l.rkey)
                in
                if
                  (not (Hashtbl.mem t.seen_links lk))
                  && Hashtbl.mem t.merged
                       (Field.canon a.left, key_repr l.lkey)
                  && Hashtbl.mem t.merged
                       (Field.canon a.right, key_repr l.rkey)
                then begin
                  Hashtbl.replace t.seen_links lk ();
                  push accepted_links (Field.canon a.aname) l
                end)
              (Sdb.links_silent tslice a.aname))
          t.target_schema.Semantic.assocs;
        let to_list tbl = Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl [] in
        let ws =
          Mapping.loader_add t.loader ~rows:(to_list accepted_rows)
            ~links:(to_list accepted_links)
        in
        t.warnings <- List.rev_append ws t.warnings);
    (* B is drained either way — a failed migration serves source-only
       from here on, it does not retry the slice. *)
    List.iter
      (fun slot ->
        if not t.done_.(slot) then begin
          t.done_.(slot) <- true;
          t.n_done <- t.n_done + 1;
          match via with
          | `Fault -> t.n_faulted <- t.n_faulted + 1
          | `Backfill -> t.n_backfilled <- t.n_backfilled + 1
        end)
      batch
  end

(* ------------------------------------------------------------------ *)
(* Request touch sets: which pending records a request may read or
   write on the target side.  Key-equality lookups demand just that
   record; anything else (scans, traversals, non-key qualifications)
   demands the whole entity, so a request is always fully faulted in
   before it is dual-run — no partial extents behind a shadowed
   request.  A read-only request that demands an undrained whole
   entity is not dual-run at all: see [prepare_request]. *)

type demand = Key of string * Value.t list | All of string

let demand_of_qual schema target qual =
  match Semantic.find_entity schema target with
  | None -> []
  | Some e -> (
      let conjs = List.filter_map Cond.as_field_eq_const (Cond.split_conjuncts qual) in
      let key_vals =
        List.map
          (fun k ->
            List.find_map
              (fun (f, v) -> if Field.name_equal f k then Some v else None)
              conjs)
          e.key
      in
      if List.for_all Option.is_some key_vals then
        [ Key (e.ename, List.map Option.get key_vals) ]
      else [ All e.ename ])

let demands_of_step schema = function
  | Apattern.Self { target; qual } -> demand_of_qual schema target qual
  | Apattern.Through { target; _ } -> [ All target ]
  | Apattern.Assoc_via { assoc; _ } | Apattern.Via_assoc { assoc; _ } -> (
      match Semantic.find_assoc schema assoc with
      | Some a -> [ All a.left; All a.right ]
      | None -> [])

let demands_of_query schema q = List.concat_map (demands_of_step schema) q

let const_exprs exprs =
  let vals =
    List.map (function Cond.Const v -> Some v | _ -> None) exprs
  in
  if vals <> [] && List.for_all Option.is_some vals then
    Some (List.map Option.get vals)
  else None

(* Demands of the mutation statements (queries are handled by the
   traversal kit's query hook below). *)
let demands_of_mutation schema = function
  | Aprog.Insert { entity; values; connects } ->
      let own =
        match Semantic.find_entity schema entity with
        | None -> []
        | Some e -> (
            let key_exprs =
              List.map
                (fun k ->
                  List.find_map
                    (fun (f, x) -> if Field.name_equal f k then Some x else None)
                    values)
                e.key
            in
            if List.for_all Option.is_some key_exprs then
              match const_exprs (List.map Option.get key_exprs) with
              | Some vals -> [ Key (e.ename, vals) ]
              | None -> [ All e.ename ]
            else [ All e.ename ])
      in
      own
      @ List.concat_map
          (fun (aname, exprs) ->
            match Semantic.find_assoc schema aname with
            | None -> []
            | Some a -> (
                match const_exprs exprs with
                | Some vals -> [ Key (a.left, vals) ]
                | None -> [ All a.left ]))
          connects
  | Aprog.Link { assoc; left_key; right_key; _ }
  | Aprog.Unlink { assoc; left_key; right_key } -> (
      match Semantic.find_assoc schema assoc with
      | None -> []
      | Some a ->
          let side ename exprs =
            match const_exprs exprs with
            | Some vals -> [ Key (ename, vals) ]
            | None -> [ All ename ]
          in
          side a.left left_key @ side a.right right_key)
  | _ -> []

module FT = Traverse.Fold (Traverse.Unit_env)

(* The request's demands, and whether it writes (any Insert, Link,
   Unlink, Update or Delete). *)
let demands_of_aprog schema (p : Aprog.t) =
  let folder =
    { FT.default with
      FT.query =
        (fun _ () (acc, writes) q -> (acc @ demands_of_query schema q, writes));
      FT.stmt =
        (fun self () (acc, _) s ->
          match s with
          | Aprog.Insert _ | Aprog.Link _ | Aprog.Unlink _ ->
              Some (acc @ demands_of_mutation schema s, true)
          | Aprog.Update _ | Aprog.Delete _ ->
              Some (FT.children self () (acc, true) s)
          | _ -> None);
    }
  in
  FT.program folder () ([], false) p

let slots_of_demand t = function
  | Key (ename, key) -> (
      match Hashtbl.find_opt t.slot_of (Field.canon ename, key_repr key) with
      | Some slot when not t.done_.(slot) -> [ slot ]
      | Some _ | None -> [])
  | All ename -> (
      match Hashtbl.find_opt t.blocks (Field.canon ename) with
      | None -> []
      | Some (lo, hi) ->
          let acc = ref [] in
          for i = hi - 1 downto lo do
            if not t.done_.(i) then acc := i :: !acc
          done;
          !acc)

(* ------------------------------------------------------------------ *)
(* Admission.  The closure translated per drained record covers two
   association hops (the record, its partners, their partners), so a
   request navigating deeper could observe a partially-translated
   neighbourhood.  The analyzer's depth pass decides statically;
   refusing at admission names the offending access path instead of
   surfacing a generic serving-time error mid-request. *)

let hop_cap = Ccv_analysis.Depth.default_cap

let admit aprog = Ccv_analysis.Depth.check ~cap:hop_cap aprog

let note_refusal t (d : Diagnostic.t) =
  let line = Fmt.str "admission refused [%s]: %s" d.code d.message in
  if not (List.mem line t.warnings) then t.warnings <- line :: t.warnings

type prepared = Faulted of int | Deferred

let undrained t ename =
  match Hashtbl.find_opt t.blocks (Field.canon ename) with
  | None -> false
  | Some (lo, hi) ->
      let rec go i = i < hi && ((not t.done_.(i)) || go (i + 1)) in
      go lo

(* [prepare_request t aprog] — fault in everything the request may
   touch, unless it only reads and scans an entity backfill has not
   finished: translating that whole extent now would put the drain's
   cost in front of one response, so the request is deferred instead
   — served from the source, which is the answer a shadowed request
   returns anyway, and never judged.  A write always faults in: its
   dual-apply is sound only on translated records.  Only the shadow
   phase can see a deferral, because promotion waits for the drain. *)
let prepare_request t aprog =
  if t.failed <> None || t.n_done = total t then Faulted 0
  else begin
    let schema = Sdb.schema t.snapshot in
    let demands, writes = demands_of_aprog schema aprog in
    if
      (not writes)
      && List.exists
           (function All e -> undrained t e | Key _ -> false)
           demands
    then begin
      t.n_deferred <- t.n_deferred + 1;
      Deferred
    end
    else begin
      let slots =
        List.sort_uniq compare (List.concat_map (slots_of_demand t) demands)
      in
      merge_batch t ~via:`Fault slots;
      Faulted (List.length slots)
    end
  end

(* ------------------------------------------------------------------ *)
(* Backfill: drain slots [watermark, to_) in batches.  The injected
   fault fires when the scan crosses the configured slot — the crash
   the rollback test recovers from. *)

let backfill_to t ~to_ =
  if t.failed <> None then ()
  else begin
    let to_ = min to_ (total t) in
    if to_ > t.watermark then begin
      (match t.config.fail_at_slot with
      | Some (shard, slot)
        when shard = t.shard_id && slot >= t.watermark && slot < to_ ->
          mark_failed t
            (Fmt.str "injected backfill fault at shard %d slot %d" t.shard_id
               slot)
      | Some _ | None ->
          let pending = ref [] in
          for i = t.watermark to to_ - 1 do
            if not t.done_.(i) then pending := i :: !pending
          done;
          merge_batch t ~via:`Backfill (List.rev !pending));
      if t.failed = None then t.watermark <- to_
    end
  end

let watermark t = t.watermark

(* ------------------------------------------------------------------ *)
(* Canonical fingerprint of a semantic instance: rows sorted per
   entity, fields sorted per row, links sorted per association — the
   physical insertion order an engine happens to use (eager bulk load
   vs. record-at-a-time merges) does not show. *)

let fingerprint_of_sdb sdb =
  let schema = Sdb.schema sdb in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Semantic.entity) ->
      Buffer.add_string buf ("E:" ^ Field.canon e.ename ^ "\n");
      let rows =
        List.sort compare
          (List.map
             (fun row ->
               String.concat ";"
                 (List.sort compare
                    (List.map
                       (fun (f, v) -> Field.canon f ^ "=" ^ Value.show v)
                       (Row.to_list row))))
             (Sdb.rows_silent sdb e.ename))
      in
      List.iter (fun r -> Buffer.add_string buf (r ^ "\n")) rows)
    schema.Semantic.entities;
  List.iter
    (fun (a : Semantic.assoc) ->
      Buffer.add_string buf ("A:" ^ Field.canon a.aname ^ "\n");
      let links =
        List.sort compare
          (List.map
             (fun (l : Sdb.link) ->
               Fmt.str "%s->%s;%s" (key_repr l.lkey) (key_repr l.rkey)
                 (String.concat ";"
                    (List.sort compare
                       (List.map
                          (fun (f, v) -> Field.canon f ^ "=" ^ Value.show v)
                          (Row.to_list l.attrs)))))
             (Sdb.links_silent sdb a.aname))
      in
      List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) links)
    schema.Semantic.assocs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Fingerprint of a target replica under [req]'s conversion, whether
   it was bulk-prepared or merged record by record. *)
let fingerprint_target (req : Supervisor.request) (db : Engines.database) =
  match Schema_change.apply_all req.Supervisor.source_schema req.Supervisor.ops with
  | Error e -> Error e
  | Ok target_schema -> (
      match (req.Supervisor.target_model, db) with
      | Mapping.Rel, Engines.Rel_db rdb ->
          Ok (fingerprint_of_sdb (Mapping.extract_relational target_schema rdb))
      | Mapping.Net, Engines.Net_db ndb ->
          let map = Supervisor.mapping_for Mapping.Net target_schema in
          Ok (fingerprint_of_sdb (Mapping.extract_network map ndb))
      | Mapping.Hier, Engines.Hier_db hdb ->
          let map = Supervisor.mapping_for Mapping.Hier target_schema in
          Ok (fingerprint_of_sdb (Mapping.extract_hier map hdb))
      | _ -> Error "fingerprint_target: model/database mismatch")
