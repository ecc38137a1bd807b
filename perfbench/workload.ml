(* The benchmark's three workloads.  Every input is a function of the
   workload name and the seed alone: no rate or size is derived from a
   measured number, so two commits are always measured on the same
   inputs.

   A run is a sequence of rounds, each serving a fresh stream over
   fresh replicas.  Round [r] draws its stream from its own seed
   ([round_seed]), so one run samples many program sets and its
   figures do not hinge on the few programs a single draw happens to
   pick. *)

open Ccv_convert
module S = Ccv_serve
module W = Ccv_workload
module G = Ccv_workload.Generator

type t = {
  name : string;
  req : Supervisor.request;
  sdb : Ccv_model.Sdb.t;  (** the instance every shard replicates *)
  stream : int -> S.Request.t list;  (** round -> its request stream *)
  config : S.Pool.config;
  cutover : S.Cutover.config;
}

let names = [ "steady"; "cold"; "live" ]

(* Figure 4.4: DEPT interposed between DIV and EMP, network to
   network. *)
let interpose_op =
  Ccv_transform.Schema_change.Interpose
    { through = W.Company.div_emp;
      new_entity = W.Company.dept;
      group_by = [ "DEPT-NAME" ];
      left_assoc = W.Company.div_dept;
      right_assoc = W.Company.dept_emp;
    }

let request =
  { Supervisor.source_schema = W.Company.schema;
    source_model = Ccv_transform.Mapping.Net;
    ops = [ interpose_op ];
    target_model = Ccv_transform.Mapping.Net;
  }

(* The controller pinned in Shadow: promotion never fires and a
   divergence rate can never exceed 2.0, so no request is ever served
   by the target or dropped by an abort.  Every request is dual-run
   and judged, which is the regime each workload is meant to load. *)
let pinned =
  { S.Cutover.canary_fraction = 0.25;
    window = 32;
    min_observations = 8;
    max_divergence_rate = 2.0;
    promote_after = max_int;
    initial = S.Cutover.Shadow;
  }

(* Two worker domains from one process: the size of the hosts this
   benchmark is calibrated on. *)
let domains = 2

let config ~shards ~live =
  { S.Pool.default_config with
    domains;
    shards;
    use_plan_cache = true;
    live_migration = live;
  }

(* Point traffic for the live workload: retrieval scans and
   modifications over a 6000-employee instance would swamp the
   migration this workload exists to measure. *)
let point_mix = [ (2, G.Lookup); (2, G.Insertion); (1, G.Deletion) ]

let round_seed ~seed round = (seed * 1_000_003) + round

let make name ~seed =
  let stream ?mix ?skew ~sample ~n ~distinct () round =
    S.Request.stream ~seed:(round_seed ~seed round) W.Company.schema ~sample ~n
      ?mix ?skew ~distinct ()
  in
  match name with
  | "steady" ->
      (* warm service: 48 programs cycled, so plans are cache hits and
         engines, judging and the scheduler do the work *)
      let sdb = W.Company.instance () in
      { name; req = request; sdb;
        stream = stream ~sample:sdb ~n:4000 ~distinct:48 ();
        config = config ~shards:8 ~live:false;
        cutover = pinned;
      }
  | "cold" ->
      (* every request a program no shard has seen: the plan layer
         misses on every request *)
      let sdb = W.Company.instance () in
      { name; req = request; sdb;
        stream = stream ~sample:sdb ~n:4000 ~distinct:4000 ();
        config = config ~shards:8 ~live:false;
        cutover = pinned;
      }
  | "live" ->
      (* migrate while serving: the only workload that runs
         Migrate.start, fault-in and backfill *)
      let sdb = W.Company.scaled ~seed ~n:3000 in
      { name; req = request; sdb;
        stream =
          stream ~sample:sdb ~n:4000 ~mix:point_mix ~skew:1.1 ~distinct:200 ();
        config = config ~shards:4 ~live:true;
        cutover = pinned;
      }
  | other -> invalid_arg ("unknown workload " ^ other)

(* Shard [s]'s slice of [requests] in id order, as the pool routes
   it. *)
let slices t requests =
  let n = t.config.S.Pool.shards in
  let per = Array.make n [] in
  List.iter
    (fun r ->
      let s = S.Request.shard_of r ~nshards:n in
      per.(s) <- r :: per.(s))
    (List.rev requests);
  per
