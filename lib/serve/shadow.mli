(** Parallel shadow execution: one request, run on the source engine
    and/or the converted program on the translated database, with the
    two traces judged online by {!Ccv_convert.Equivalence}.  The served
    trace is the response the caller would see; the other run is the
    shadow. *)

open Ccv_common
open Ccv_convert

type decision = Serve_source | Serve_target

val decision_name : decision -> string

type outcome = {
  request : Request.t;
  shard : int;
  epoch : int;
      (** the shard's logical epoch row the request executed in *)
  seq : int;  (** position within the shard's slice of that epoch *)
  phase : string;  (** {!Cutover.phase_name} at execution time *)
  decision : decision;
  shadowed : bool;  (** both sides ran and were compared *)
  verdict : Equivalence.verdict option;  (** [Some] iff [shadowed] *)
  divergent : bool;  (** verdict below the configured tolerance *)
  refused : bool;  (** conversion refused; served by the source *)
  served_trace : Io_trace.t;
  latency_us : float;
  done_at : float;
      (** completion stamp on the pool clock — lets an open-loop bench
          compute latency from the request's {e intended} arrival time
          rather than its service start, avoiding coordinated
          omission *)
  source_accesses : int;
  target_accesses : int;
}

(** Human-readable divergence context, naming the first differing
    event ([None] when the outcome did not diverge). *)
val divergence_detail : outcome -> string option

(** [judge ~tolerate_reordering reference observed] — the verdict plus
    whether it counts as a divergence at the configured tolerance
    ([Modulo_order] is tolerated by default; [Strict] tolerance flags
    any reordering). *)
val judge :
  tolerate_reordering:bool -> Io_trace.t -> Io_trace.t ->
  Equivalence.verdict * bool
