(** Observability for the conversion service: per-phase/per-shard
    request counts, engine access totals, a fixed-bucket latency
    histogram, and the divergence log — rendered through
    {!Ccv_common.Tablefmt} and exportable as JSON rows.

    Aggregation happens on the coordinating thread: outcomes are
    merged row by row, in canonical order, so shard workers touch no
    shared metrics state on the request hot path.  Each (phase, shard)
    cell also counts the distinct logical epochs it served, exported
    in the JSON rows. *)

(** {2 Latency histograms} *)

type hist

val hist_create : unit -> hist
val hist_add : hist -> float -> unit
(** [hist_add h us] files one latency observation, in microseconds. *)

val hist_count : hist -> int

(** Upper bucket bound (µs) under which the given fraction of
    observations falls; [infinity] when the top bucket is hit. *)
val hist_quantile : hist -> float -> float

(** {2 The metrics store} *)

type t

val create : unit -> t

(** Merge one outcome (coordinator thread only). *)
val record : t -> Shadow.outcome -> unit

val total_requests : t -> int
val total_divergent : t -> int
val total_refused : t -> int

(** [(phase, shard) ] cells seen so far, in first-seen order. *)
val phases : t -> string list

(** Per-phase totals: requests, by-source, by-target, shadowed,
    divergent, refused, source accesses, target accesses, served
    trace events ({!Ccv_common.Io_trace.length} summed over served
    traces). *)
type phase_totals = {
  requests : int;
  by_source : int;
  by_target : int;
  shadowed : int;
  divergent : int;
  refused : int;
  source_accesses : int;
  target_accesses : int;
  trace_events : int;
  latency : hist;
}

val phase_totals : t -> phase:string -> phase_totals

(** Boxed tables: one per-phase summary and one per-phase/per-shard
    breakdown. *)
val render : t -> string

(** One JSON row per (phase, shard) cell plus one per phase, as
    (key, rendered value) pairs ready for the bench writer. *)
val json_rows : t -> (string * string) list list
