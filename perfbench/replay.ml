(* The traced run: one domain replays the workload's stream shard by
   shard in canonical (epoch, shard, seq) order, through the public
   functions [Shard.exec] and the pool compose, with a span around
   every call into a layer:

     request                    one per request, carries its id
       migrate.admit            Migrate.admit              (live)
       migrate.fault_in         Migrate.prepare_request    (live)
       plan.lookup              Plan_cache.find_or_compile
         convert.serve_pair     Supervisor.serve_pair      (miss)
         plan.compile           Engines.compile            (miss)
       convert.source_run       Engines.run_compiled, source
       convert.target_run       Engines.run_compiled, target
       serve.judge              Shadow.judge
       serve.controller         Cutover.observe
     migrate.backfill           Migrate.backfill_to before each row (live)

   GC phases from [Runtime_events] join the same timeline under the
   span they interrupted.  Everything runs under one [replay] span, so
   the self times of all spans sum to the replay's total. *)

open Ccv_convert
module S = Ccv_serve
module M = Ccv_migrate.Migrate
module Pc = Ccv_plan.Plan_cache
module Io_trace = Ccv_common.Io_trace

type entry = {
  csrc : Engines.compiled_program;
  ctgt : (Engines.compiled_program, string * string) result;
}

type shard = {
  servable : Supervisor.servable;
  mutable source_db : Engines.database;
  mutable target_db : Engines.database;
  cache : (Ccv_abstract.Aprog.t, (entry, string * string) result) Pc.t;
  migration : M.t option;
}

type result = {
  spans : Spans.t;
  served : (int * Io_trace.t * bool) list;  (** id, served trace, divergent *)
  backfilled : int;  (** slots drained by backfill spans *)
  lost_gc_events : int;
}

(* ------------------------------------------------------------------ *)
(* GC phases, read back from this process's runtime-events ring. *)

let gc_phase = function
  | Runtime_events.EV_MINOR -> Some "gc.minor"
  | Runtime_events.EV_MAJOR_SLICE -> Some "gc.major_slice"
  | _ -> None

let gc_reader spans =
  let cursor = Runtime_events.create_cursor None in
  let lost = ref 0 in
  let opened = Hashtbl.create 4 in
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun dom t ph ->
        match gc_phase ph with
        | Some name -> Hashtbl.replace opened (dom, name) (ts t)
        | None -> ())
      ~runtime_end:(fun dom t ph ->
        match gc_phase ph with
        | Some name -> (
            match Hashtbl.find_opt opened (dom, name) with
            | Some start ->
                Hashtbl.remove opened (dom, name);
                ignore (Spans.add spans ~name ~start ~stop:(ts t) ~parent:(-1) ~req:(-1))
            | None -> ())
        | None -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let read () = ignore (Runtime_events.read_poll cursor callbacks None) in
  (* reading the ring is tracing cost: it gets a span of its own *)
  let poll () = Spans.with_ spans "trace.poll" read in
  (poll, fun () -> read (); Runtime_events.free_cursor cursor; !lost)

(* ------------------------------------------------------------------ *)

let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let run (w : Workload.t) requests =
  let cfg = w.Workload.config in
  let req = w.Workload.req and sdb = w.Workload.sdb in
  let spans = Spans.create () in
  let span ?req name f = Spans.with_ spans ?req name f in
  let fail stage e = failwith (Printf.sprintf "traced replay: %s: %s" stage e) in
  Runtime_events.start ();
  let poll, finish_gc = gc_reader spans in
  (* set-up: what live migration avoids (a bulk realize and translate
     of one replica) is timed on every workload; the replay's own
     shards are prepared as the pool prepares them *)
  let shards =
    span "setup" (fun () ->
        ignore (span "transform.realize_source" (fun () ->
                    Supervisor.realize req.Supervisor.source_model sdb));
        (match span "transform.translate" (fun () ->
                   Supervisor.translate_database req sdb) with
        | Ok _ -> ()
        | Error e -> fail "translate_database" e);
        Array.init cfg.S.Pool.shards (fun s ->
            if cfg.S.Pool.live_migration then
              let mconfig =
                { M.batch = cfg.S.Pool.backfill_batch;
                  lag = cfg.S.Pool.backfill_lag;
                  fail_at_slot = None;
                }
              in
              match span "migrate.start" (fun () ->
                        M.start ~config:mconfig ~shard_id:s req sdb) with
              | Error (st, e) -> fail st e
              | Ok (m, sv) ->
                  { servable = sv; source_db = sv.Supervisor.source_db;
                    target_db = M.engine_db m; cache = Pc.create ();
                    migration = Some m }
            else
              match span "convert.prepare_serving" (fun () ->
                        Supervisor.prepare_serving req sdb) with
              | Error (st, e) -> fail st e
              | Ok sv ->
                  { servable = sv; source_db = sv.Supervisor.source_db;
                    target_db = sv.Supervisor.target_db; cache = Pc.create ();
                    migration = None }))
  in
  poll ();
  let fingerprint = Supervisor.serving_fingerprint req in
  let ctl = S.Cutover.create w.Workload.cutover in
  let rows =
    Array.map (chunks (max 1 cfg.S.Pool.epoch_batch)) (Workload.slices w requests)
    |> Array.map Array.of_list
  in
  let served = ref [] and backfilled = ref 0 in
  let backfill sh ~to_ =
    match sh.migration with
    | None -> ()
    | Some m ->
        let before = M.n_done m in
        span "migrate.backfill" (fun () ->
            M.sync_engine_db m sh.target_db;
            M.backfill_to m ~to_;
            sh.target_db <- M.engine_db m);
        backfilled := !backfilled + (M.n_done m - before)
  in
  let exec sh ~epoch (r : S.Request.t) =
    let aprog = r.S.Request.aprog in
    let admission =
      match sh.migration with
      | None -> `Active
      | Some m when M.failed m <> None -> `Inactive
      | Some m -> (
          match span "migrate.admit" (fun () -> M.admit aprog) with
          | Error d ->
              M.note_refusal m d;
              `Refused
          | Ok () ->
              span "migrate.fault_in" (fun () ->
                  M.sync_engine_db m sh.target_db;
                  (try ignore (M.prepare_request m aprog)
                   with e -> M.mark_failed m (Printexc.to_string e));
                  sh.target_db <- M.engine_db m);
              if M.failed m = None then `Active else `Inactive)
    in
    let compiled =
      span "plan.lookup" (fun () ->
          Pc.find_or_compile sh.cache ~fingerprint aprog ~compile:(fun aprog ->
              match span "convert.serve_pair" (fun () ->
                        Supervisor.serve_pair ~at_epoch:epoch sh.servable aprog)
              with
              | Error e -> Error e
              | Ok p ->
                  span "plan.compile" (fun () ->
                      Ok
                        { csrc = Engines.compile p.Supervisor.source_program;
                          ctgt = Result.map Engines.compile p.Supervisor.target_program;
                        })))
    in
    let run_source csrc =
      let res = span "convert.source_run" (fun () ->
                    Engines.run_compiled sh.source_db csrc) in
      sh.source_db <- res.Engines.final_db;
      res.Engines.trace
    in
    match compiled with
    | Error _ -> ([], false)
    | Ok { csrc; ctgt = Error _ } -> (run_source csrc, false)
    | Ok { csrc; ctgt = Ok _ } when admission <> `Active -> (run_source csrc, false)
    | Ok { csrc; ctgt = Ok ctgt } ->
        (* pinned in Shadow: both sides run, the source side is served *)
        let st = run_source csrc in
        let tr = span "convert.target_run" (fun () ->
                     Engines.run_compiled sh.target_db ctgt) in
        sh.target_db <- tr.Engines.final_db;
        let _, divergent =
          span "serve.judge" (fun () ->
              S.Shadow.judge ~tolerate_reordering:cfg.S.Pool.tolerate_reordering
                st tr.Engines.trace)
        in
        span "serve.controller" (fun () ->
            S.Cutover.observe ctl ~request_id:r.S.Request.id ~epoch ~divergent);
        (st, divergent)
  in
  span "replay" (fun () ->
      (* a shard the router sends nothing is drained up front *)
      Array.iteri (fun s sh -> if rows.(s) = [||] then backfill sh ~to_:max_int) shards;
      let nrows = Array.fold_left (fun a r -> max a (Array.length r)) 0 rows in
      for e = 0 to nrows - 1 do
        Array.iteri
          (fun s sh ->
            let n = Array.length rows.(s) in
            if e < n then begin
              (match sh.migration with
              | Some m when M.failed m = None ->
                  backfill sh
                    ~to_:(Ccv_migrate.Backfill.watermark_target ~total:(M.total m)
                            ~batch:cfg.S.Pool.backfill_batch
                            ~lag:cfg.S.Pool.backfill_lag ~rows:n e)
              | _ -> ());
              poll ();
              List.iter
                (fun (r : S.Request.t) ->
                  let trace, divergent =
                    span ~req:r.S.Request.id "request" (fun () -> exec sh ~epoch:e r)
                  in
                  served := (r.S.Request.id, trace, divergent) :: !served;
                  poll ())
                rows.(s).(e)
            end)
          shards
      done);
  let lost_gc_events = finish_gc () in
  { spans; served = List.rev !served; backfilled = !backfilled; lost_gc_events }
