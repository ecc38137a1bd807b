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

module Rec_tbl = Value.Key.Rec_tbl
module Link_tbl = Value.Key.Link_tbl

(* A translated slice, reduced to what a shard merges from it: the
   target rows the slice may contribute and every target link it
   produced, each with its record keys, in merge order.  A pure
   function of the plan and the slot list. *)
type image = {
  ient : string;  (* canonical target entity *)
  ikey : Value.t list;
  irow : Row.t;
}

type tlink = {
  lassoc : string;
  lleft : string;  (* canonical left entity *)
  lright : string;
  tl : Sdb.link;
}

type translation = {
  slice_rows : int;  (* source rows assembled into the slice *)
  images : (image list * tlink list, string) result;
}

(* One backfill block's shared translation.  [handled] counts the
   shards done with the block (applied it, or gave it up by failing);
   when it reaches the plan's attached count the translation is
   dropped. *)
type cell = {
  lock : Mutex.t;
  mutable tr : translation option;
  mutable handled : int;
}

type plan = {
  config : config;
  snapshot : Sdb.t;
  ops : Schema_change.op list;
  target_schema : Semantic.t;
  target_model : Mapping.target_model;
  slots : (string * Row.t) array;
  slot_of : int Rec_tbl.t;
  blocks : (string, int * int) Hashtbl.t;
      (* canonical entity -> its contiguous slot range [lo, hi) *)
  partner_index : (string * Value.t list) list Rec_tbl.t;
      (* record -> link partners over the immutable snapshot *)
  row_index : (int * Row.t) Rec_tbl.t;
      (* (entity, key) -> extent position and row over the snapshot;
         lets a slice collect exactly its closure instead of filtering
         every full extent per batch *)
  link_index : (int * Sdb.link) list Rec_tbl.t;
      (* (assoc, left key) -> that endpoint's links with their
         link-set positions, same purpose *)
  derived : Semantic.entity list;
      (* target entities that are no source entity's image *)
  cells : cell array;  (* cell k: slots [k * batch, (k + 1) * batch) *)
  attached : int Atomic.t;
  translated_blocks : int Atomic.t;
}

type t = {
  shard_id : int;
  plan : plan;
  loader : Mapping.loader;
  done_ : bool array;
  mutable n_done : int;
  mutable n_faulted : int;  (* slots drained by request fault-in *)
  mutable n_backfilled : int;  (* slots drained by the backfill driver *)
  mutable n_deferred : int;  (* read-only requests served without fault-in *)
  mutable n_translated : int;  (* rows of the slices this shard applied *)
  mutable watermark : int;  (* slots [0, watermark) scanned by backfill *)
  mutable next_cell : int;  (* cells below it this shard is done with *)
  mutable failed : string option;
  mutable warnings : string list;
  merged : unit Rec_tbl.t;  (* target rows already appended to the replica *)
  seen_links : unit Link_tbl.t;  (* target links already appended *)
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

let rec_push tbl k v =
  Rec_tbl.replace tbl k (v :: Option.value (Rec_tbl.find_opt tbl k) ~default:[])

(* ------------------------------------------------------------------ *)
(* The plan: everything derived from the snapshot, built once.         *)

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
  let idx = Rec_tbl.create 1024 in
  List.iter
    (fun (a : Semantic.assoc) ->
      List.iter
        (fun (l : Sdb.link) ->
          rec_push idx (Field.canon a.left, l.lkey) (Field.canon a.right, l.rkey);
          rec_push idx (Field.canon a.right, l.rkey) (Field.canon a.left, l.lkey))
        (Sdb.links_silent sdb a.aname))
    (Sdb.schema sdb).Semantic.assocs;
  idx

(* Positional indexes over the immutable snapshot: slice assembly
   looks up exactly the closure's rows and links instead of filtering
   every full extent and link set per batch, which made a drain
   quadratic in the instance size.  The recorded positions let a slice
   keep extent/link-set order, so the assembled sub-instance is
   byte-identical to the filtering one.  Built eagerly: the plan is
   read by every shard's domain. *)
let build_row_index sdb =
  let idx = Rec_tbl.create 1024 in
  List.iter
    (fun (e : Semantic.entity) ->
      List.iteri
        (fun i row ->
          Rec_tbl.replace idx (Field.canon e.ename, Sdb.key_of e row) (i, row))
        (Sdb.rows_silent sdb e.ename))
    (Sdb.schema sdb).Semantic.entities;
  idx

let build_link_index sdb =
  let idx = Rec_tbl.create 1024 in
  List.iter
    (fun (a : Semantic.assoc) ->
      List.iteri
        (fun i (l : Sdb.link) -> rec_push idx (Field.canon a.aname, l.lkey) (i, l))
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
  let slot_of = Rec_tbl.create 1024 and blocks = Hashtbl.create 16 in
  let next = ref 0 in
  let block (e : Semantic.entity) =
    let en = Field.canon e.ename in
    let earliest_partner key =
      List.fold_left
        (fun acc p ->
          match Rec_tbl.find_opt slot_of p with
          | Some i -> min acc i
          | None -> acc)
        max_int
        (Option.value (Rec_tbl.find_opt partner_index (en, key)) ~default:[])
    in
    let ranked =
      List.stable_sort
        (fun (a, _, _) (b, _, _) -> Int.compare a b)
        (List.map
           (fun row ->
             let key = Sdb.key_of e row in
             (earliest_partner key, key, row))
           (Sdb.rows_silent sdb e.ename))
    in
    let lo = !next in
    List.iter
      (fun (_, key, _) ->
        Rec_tbl.replace slot_of (en, key) !next;
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
let derived_entities ops source_schema target_schema =
  let source_images =
    List.filter_map
      (fun (e : Semantic.entity) -> entity_image ops e.ename)
      source_schema.Semantic.entities
  in
  List.filter
    (fun (e : Semantic.entity) ->
      not (List.exists (Field.name_equal e.ename) source_images))
    target_schema.Semantic.entities

let batch_of config = max 1 config.batch

let plan ?(config = default_config) (req : Supervisor.request) sdb =
  match Schema_change.apply_all req.Supervisor.source_schema req.Supervisor.ops with
  | Error e -> Error ("conversion-analyzer", e)
  | Ok target_schema ->
      let partner_index = build_partner_index sdb in
      let slots, slot_of, blocks = order_slots sdb partner_index in
      let ncells = (Array.length slots + batch_of config - 1) / batch_of config in
      Ok
        { config;
          snapshot = sdb;
          ops = req.Supervisor.ops;
          target_schema;
          target_model = req.Supervisor.target_model;
          slots;
          slot_of;
          blocks;
          partner_index;
          row_index = build_row_index sdb;
          link_index = build_link_index sdb;
          derived =
            derived_entities req.Supervisor.ops (Sdb.schema sdb) target_schema;
          cells =
            Array.init ncells (fun _ ->
                { lock = Mutex.create (); tr = None; handled = 0 });
          attached = Atomic.make 0;
          translated_blocks = Atomic.make 0;
        }

let attach plan ~shard_id =
  Atomic.incr plan.attached;
  { shard_id;
    plan;
    loader = make_loader plan.target_model plan.target_schema;
    done_ = Array.make (Array.length plan.slots) false;
    n_done = 0;
    n_faulted = 0;
    n_backfilled = 0;
    n_deferred = 0;
    n_translated = 0;
    watermark = 0;
    next_cell = 0;
    failed = None;
    warnings = [];
    merged = Rec_tbl.create 256;
    seen_links = Link_tbl.create 256;
  }

let start ?config ~shard_id (req : Supervisor.request) sdb =
  match plan ?config req sdb with
  | Error e -> Error e
  | Ok p -> (
      match Supervisor.prepare_live req sdb with
      | Error e -> Error e
      | Ok (servable, _) -> Ok (attach p ~shard_id, servable))

let blocks_translated plan = Atomic.get plan.translated_blocks

let blocks_held plan =
  Array.fold_left
    (fun n c ->
      Mutex.protect c.lock (fun () -> if Option.is_none c.tr then n else n + 1))
    0 plan.cells

let total t = Array.length t.plan.slots
let n_done t = t.n_done
let failed t = t.failed

(* This shard is done with cell [k]: the last attached shard to say so
   drops the translation. *)
let release_cell plan k =
  let c = plan.cells.(k) in
  Mutex.protect c.lock (fun () ->
      c.handled <- c.handled + 1;
      if c.handled >= Atomic.get plan.attached then c.tr <- None)

(* A failed shard applies nothing more, so it gives up every cell it
   has not reached: the last healthy shard to apply one frees it. *)
let mark_failed t msg =
  if t.failed = None then begin
    t.failed <- Some msg;
    for k = t.next_cell to Array.length t.plan.cells - 1 do
      release_cell t.plan k
    done;
    t.next_cell <- Array.length t.plan.cells
  end

let slot_order t = Array.to_list t.plan.slots

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
  match t.plan.target_model with
  | Mapping.Rel -> Engines.Rel_db (Mapping.loader_rdb t.loader)
  | Mapping.Net -> Engines.Net_db (Mapping.loader_ndb t.loader)
  | Mapping.Hier -> Engines.Hier_db (Mapping.loader_hdb t.loader)

let sync_engine_db t (db : Engines.database) =
  match (t.plan.target_model, db) with
  | Mapping.Rel, Engines.Rel_db rdb -> Mapping.loader_set_rdb t.loader rdb
  | Mapping.Net, Engines.Net_db ndb -> Mapping.loader_set_ndb t.loader ndb
  | Mapping.Hier, Engines.Hier_db hdb -> Mapping.loader_set_hdb t.loader hdb
  | _ -> invalid_arg "Migrate.sync_engine_db: model mismatch"

(* ------------------------------------------------------------------ *)
(* Slice closure, translation and merge.

   A batch [B] of source records is translated together with its link
   partners (hop 1) and their partners (hop 2), so ops that compute
   across links (Interpose groupings, Collapse field pulls) see the
   same context they would in a bulk translation.  Rows merged into
   the replica: images of B and hop 1 plus all derived-entity rows —
   hop 2 is context only.  Covering two hops makes every hop-1 row's
   own link neighbourhood complete; schemas whose ops reach deeper
   than two associations are out of scope (ours have at most two).

   [translate] is the shard-independent half: a pure function of the
   plan and the slot list, so one backfill block's result serves every
   shard.  [apply] is the per-shard half: insert-if-absent against the
   shard's own [merged]/[seen_links], then the loader. *)

let partners_of plan r =
  Option.value (Rec_tbl.find_opt plan.partner_index r) ~default:[]

let in_position_order xs =
  List.map snd (List.sort (fun (i, _) (j, _) -> compare (i : int) j) xs)

let translate plan (batch : int list) =
  let schema = Sdb.schema plan.snapshot in
  let seen : unit Rec_tbl.t = Rec_tbl.create 64 in
  let frontier = ref [] in
  let b_records =
    List.map
      (fun slot ->
        let ename, row = plan.slots.(slot) in
        (Field.canon ename, Sdb.key_of (Semantic.find_entity_exn schema ename) row))
      batch
  in
  List.iter
    (fun r ->
      if not (Rec_tbl.mem seen r) then begin
        Rec_tbl.replace seen r ();
        frontier := r :: !frontier
      end)
    b_records;
  let hop1 = ref [] in
  let expand collect =
    let prev = !frontier in
    frontier := [];
    List.iter
      (fun r ->
        List.iter
          (fun p ->
            if not (Rec_tbl.mem seen p) then begin
              Rec_tbl.replace seen p ();
              frontier := p :: !frontier;
              if collect then hop1 := p :: !hop1
            end)
          (partners_of plan r))
      prev
  in
  expand true;
  expand false;
  (* Assemble the slice: rows for every seen record, links with both
     endpoints inside — via the snapshot indexes, so the work is
     proportional to the closure, not the instance. *)
  let seen_by_entity : (string, Value.t list list) Hashtbl.t = Hashtbl.create 16 in
  Rec_tbl.iter
    (fun (en, key) () ->
      Hashtbl.replace seen_by_entity en
        (key :: Option.value (Hashtbl.find_opt seen_by_entity en) ~default:[]))
    seen;
  let seen_keys en =
    Option.value (Hashtbl.find_opt seen_by_entity en) ~default:[]
  in
  let slice_rows =
    List.map
      (fun (e : Semantic.entity) ->
        let en = Field.canon e.ename in
        ( e.ename,
          in_position_order
            (List.filter_map
               (fun key -> Rec_tbl.find_opt plan.row_index (en, key))
               (seen_keys en)) ))
      schema.Semantic.entities
  in
  let slice_links =
    List.map
      (fun (a : Semantic.assoc) ->
        let an = Field.canon a.aname and right = Field.canon a.right in
        ( a.aname,
          in_position_order
            (List.concat_map
               (fun key ->
                 List.filter
                   (fun (_, (l : Sdb.link)) -> Rec_tbl.mem seen (right, l.rkey))
                   (Option.value
                      (Rec_tbl.find_opt plan.link_index (an, key))
                      ~default:[]))
               (seen_keys (Field.canon a.left))) ))
      schema.Semantic.assocs
  in
  let slice_rows_n =
    List.fold_left (fun acc (_, rows) -> acc + List.length rows) 0 slice_rows
  in
  let images =
    match
      Data_translate.translate_slice ~snapshot:plan.snapshot ~ops:plan.ops
        ~rows:slice_rows ~links:slice_links
    with
    | Error msg -> Error msg
    | Ok (tslice, _slice_warnings) ->
        (* Images of B and hop 1; absent ones (e.g. filtered out by a
           Restrict_extension) contribute nothing. *)
        let accepted =
          List.filter_map
            (fun (ename, key) ->
              match entity_image plan.ops ename with
              | None -> None
              | Some tname ->
                  Option.map
                    (fun irow -> { ient = Field.canon tname; ikey = key; irow })
                    (Sdb.find_entity tslice tname key))
            (b_records @ List.rev !hop1)
        in
        let derived =
          List.concat_map
            (fun (e : Semantic.entity) ->
              List.map
                (fun irow ->
                  { ient = Field.canon e.ename; ikey = Sdb.key_of e irow; irow })
                (Sdb.rows_silent tslice e.ename))
            plan.derived
        in
        let links =
          List.concat_map
            (fun (a : Semantic.assoc) ->
              let lassoc = Field.canon a.aname
              and lleft = Field.canon a.left
              and lright = Field.canon a.right in
              List.map
                (fun tl -> { lassoc; lleft; lright; tl })
                (Sdb.links_silent tslice a.aname))
            plan.target_schema.Semantic.assocs
        in
        Ok (accepted @ derived, links)
  in
  { slice_rows = slice_rows_n; images }

let apply t ~via (batch : int list) tr =
  t.n_translated <- t.n_translated + tr.slice_rows;
  (match tr.images with
  | Error msg -> mark_failed t msg
  | Ok (images, links) ->
      let rows : (string, Row.t list) Hashtbl.t = Hashtbl.create 16
      and tlinks : (string, Sdb.link list) Hashtbl.t = Hashtbl.create 16 in
      let push tbl k v =
        Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
      in
      List.iter
        (fun i ->
          let ck = (i.ient, i.ikey) in
          if not (Rec_tbl.mem t.merged ck) then begin
            Rec_tbl.replace t.merged ck ();
            push rows i.ient i.irow
          end)
        images;
      (* Links: both endpoints merged, not seen before. *)
      List.iter
        (fun l ->
          let lk = (l.lassoc, l.tl.Sdb.lkey, l.tl.Sdb.rkey) in
          if
            (not (Link_tbl.mem t.seen_links lk))
            && Rec_tbl.mem t.merged (l.lleft, l.tl.Sdb.lkey)
            && Rec_tbl.mem t.merged (l.lright, l.tl.Sdb.rkey)
          then begin
            Link_tbl.replace t.seen_links lk ();
            push tlinks l.lassoc l.tl
          end)
        links;
      let to_list tbl = Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl [] in
      let ws = Mapping.loader_add t.loader ~rows:(to_list rows) ~links:(to_list tlinks) in
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

(* Block [k]'s translation, computed under the cell's lock by the first
   shard to ask (again, should a shard attached after the others freed
   the cell ask); the caller is done with the cell once it has it. *)
let take_block plan k =
  let c = plan.cells.(k) and b = batch_of plan.config in
  let lo = k * b and hi = min (Array.length plan.slots) ((k + 1) * b) in
  let tr =
    Mutex.protect c.lock (fun () ->
        match c.tr with
        | Some tr -> tr
        | None ->
            Atomic.incr plan.translated_blocks;
            let tr = translate plan (List.init (hi - lo) (fun i -> lo + i)) in
            c.tr <- Some tr;
            tr)
  in
  release_cell plan k;
  tr

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
      match Rec_tbl.find_opt t.plan.slot_of (Field.canon ename, key) with
      | Some slot when not t.done_.(slot) -> [ slot ]
      | Some _ | None -> [])
  | All ename -> (
      match Hashtbl.find_opt t.plan.blocks (Field.canon ename) with
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
  match Hashtbl.find_opt t.plan.blocks (Field.canon ename) with
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
    let schema = Sdb.schema t.plan.snapshot in
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
      if slots <> [] then apply t ~via:`Fault slots (translate t.plan slots);
      Faulted (List.length slots)
    end
  end

(* ------------------------------------------------------------------ *)
(* Backfill: drain slots [watermark, to_), with [to_] rounded up to
   the block grid — draining past it is harmless — so the watermark
   only ever sits on a block boundary or at [total], and every block
   comes whole from the plan's shared cell, translated once for all
   shards over all its slots, drained or not, so the result does not
   depend on the shard.  The injected fault fires when the scan
   crosses the configured slot — the crash the rollback test recovers
   from. *)

let backfill_to t ~to_ =
  if t.failed <> None then ()
  else begin
    let b = batch_of t.plan.config in
    let to_ = if to_ >= total t then total t else (to_ + b - 1) / b * b in
    if to_ > t.watermark then begin
      (match t.plan.config.fail_at_slot with
      | Some (shard, slot)
        when shard = t.shard_id && slot >= t.watermark && slot < to_ ->
          mark_failed t
            (Fmt.str "injected backfill fault at shard %d slot %d" t.shard_id
               slot)
      | Some _ | None ->
          for k = t.watermark / b to (to_ - 1) / b do
            if t.failed = None then begin
              let lo = k * b and hi = min to_ ((k + 1) * b) in
              let tr = take_block t.plan k in
              t.next_cell <- k + 1;
              apply t ~via:`Backfill (List.init (hi - lo) (fun i -> lo + i)) tr
            end
          done);
      if t.failed = None then t.watermark <- to_
    end
  end

let watermark t = t.watermark

(* ------------------------------------------------------------------ *)
(* Canonical fingerprint of a semantic instance: rows sorted per
   entity, fields sorted per row, links sorted per association — the
   physical insertion order an engine happens to use (eager bulk load
   vs. record-at-a-time merges) does not show.  Floats print with 17
   significant digits, so distinct floats never print alike (a [%g]
   rendering would hide a mixed-up [1.0] and [1.0000001]). *)

let exact_show = function
  | Value.Float f -> Printf.sprintf "%.17g" f
  | v -> Value.show v

let key_repr key = String.concat "|" (List.map exact_show key)

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
                       (fun (f, v) -> Field.canon f ^ "=" ^ exact_show v)
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
                          (fun (f, v) -> Field.canon f ^ "=" ^ exact_show v)
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
