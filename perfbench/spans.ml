(* In-memory span recording for the traced run: name, start, end,
   parent and request id per span, on the monotonic clock the OCaml
   runtime also stamps its own events with, so GC phases read from
   [Runtime_events] share the timeline. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float (now_ns ()) *. 1e-9

type span = {
  id : int;
  name : string;
  start : int;  (** ns *)
  mutable stop : int;  (** ns *)
  mutable parent : int;  (** span id, -1 at the top *)
  req : int;  (** request id, -1 outside requests *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable open_ : span list;  (** innermost first *)
  mutable next : int;
}

let create () = { spans = []; open_ = []; next = 0 }

let add t ~name ~start ~stop ~parent ~req =
  let s = { id = t.next; name; start; stop; parent; req } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

(* [with_ t name f] — [f ()] inside a span that is a child of the
   innermost open one; a request span's id propagates to its
   children. *)
let with_ t ?req name f =
  let parent, preq =
    match t.open_ with [] -> (-1, -1) | p :: _ -> (p.id, p.req)
  in
  let req = Option.value req ~default:preq in
  let s = add t ~name ~start:(now_ns ()) ~stop:(-1) ~parent ~req in
  t.open_ <- s :: t.open_;
  let close () =
    s.stop <- now_ns ();
    t.open_ <- List.tl t.open_
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* Spans recorded after the fact (GC phases) carry no parent yet:
   [nest] re-derives every parent by interval containment, which
   leaves the recorded parents of properly nested spans unchanged and
   places each GC phase under the innermost span it ran inside.
   Returns the number of spans that overlap a sibling without being
   contained in it — zero when the timeline is sound. *)
let nest t =
  let all =
    List.sort
      (fun a b ->
        match Int.compare a.start b.start with
        | 0 -> (
            match Int.compare b.stop a.stop with 0 -> Int.compare a.id b.id | c -> c)
        | c -> c)
      t.spans
  in
  let partial = ref 0 in
  let rec place stack s =
    match stack with
    | top :: rest when not (top.start <= s.start && s.stop <= top.stop) ->
        if s.start < top.stop then incr partial;
        place rest s
    | _ ->
        s.parent <- (match stack with [] -> -1 | top :: _ -> top.id);
        s :: stack
  in
  ignore (List.fold_left place [] all);
  !partial

let dur s = s.stop - s.start

(* Per span id: duration minus the part its children cover. *)
let self_times t =
  let self = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace self s.id (dur s)) t.spans;
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace self s.parent (Hashtbl.find self s.parent - dur s))
    t.spans;
  self

(* Chrome trace-event JSON (viewable in Perfetto / chrome://tracing). *)
let write t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d}}\n"
        (if i = 0 then "" else ",")
        s.name (float s.start /. 1e3) (float (dur s) /. 1e3) s.id s.parent s.req)
    (List.rev t.spans);
  output_string oc "]}\n";
  close_out oc
