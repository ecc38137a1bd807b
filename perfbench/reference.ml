(* The correctness reference: each shard's slice replayed in id order
   through the interpreted engine ([Engines.run]) on a freshly realized
   source replica — the unconverted program run on its own, with no
   plan cache, no compiled closures, no pool.  In the pinned Shadow
   phase the service serves the source side, so every served trace
   must equal this replay request by request. *)

open Ccv_convert
module S = Ccv_serve

(* [create w] realizes the source instance once; network instances
   are persistent, so every shard's replay starts from that same
   untouched replica.  The result maps a round's requests to their
   reference traces by request id.  A program the source generator
   cannot produce has nothing to run: its reference is the empty
   trace, as the service serves it. *)
let create (w : Workload.t) =
  let req = w.Workload.req in
  let mapping =
    Supervisor.mapping_for req.Supervisor.source_model req.Supervisor.source_schema
  in
  let _, db0 = Supervisor.realize req.Supervisor.source_model w.Workload.sdb in
  fun requests ->
    let out = Hashtbl.create (List.length requests) in
    Array.iter
      (fun slice ->
        ignore
          (List.fold_left
             (fun db (r : S.Request.t) ->
               match Generator.generate mapping r.S.Request.aprog with
               | Error _ ->
                   Hashtbl.replace out r.S.Request.id [];
                   db
               | Ok g ->
                   let res = Engines.run db g.Generator.program in
                   Hashtbl.replace out r.S.Request.id res.Engines.trace;
                   res.Engines.final_db)
             db0 slice))
      (Workload.slices w requests);
    out
