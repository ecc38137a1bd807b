(* A persistent domain pool with a barrier-step protocol.  Workers are
   spawned once and parked on a condition variable between steps, so a
   caller issuing thousands of small steps (the serving loop's ticks)
   pays the domain startup cost once instead of per step.

   Synchronization is a single mutex plus two conditions:

     coordinator                        worker i (1 <= i < size)
     -----------                        ------------------------
     publish tasks, pending = n-1       wait until generation moves
     generation++, broadcast ready ---> run tasks.(i)
     run tasks.(0) inline               pending--, signal done when 0
     wait until pending = 0  <---------

   Results are written into caller-local arrays by the task closures
   before the worker touches the mutex to decrement [pending], and the
   coordinator reads them only after observing [pending = 0] under the
   same mutex — that release/acquire pair is what makes the writes
   visible across domains. *)

exception Worker_error of { worker : int; error : exn }

let () =
  Printexc.register_printer (function
    | Worker_error { worker; error } ->
        Some
          (Printf.sprintf "Workpool.Worker_error(worker %d: %s)" worker
             (Printexc.to_string error))
    | _ -> None)

type t = {
  n : int;
  mutex : Mutex.t;
  ready : Condition.t;
  done_ : Condition.t;
  mutable tasks : (unit -> unit) array;  (* slot 0 runs on the caller *)
  mutable generation : int;
  mutable pending : int;
  mutable stop : bool;
  mutable busy : bool;  (* a step is in flight (owner-domain only) *)
  idle_s : float array;  (* per-worker park time, written by that worker *)
  async_failures : exn option array;  (* stashed by submit jobs, raised at drain *)
  clock : unit -> float;
  owner : Domain.id;
  mutable workers : unit Domain.t array;
}

let size t = t.n
let nothing () = ()

let worker_loop t i =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    let parked_at = t.clock () in
    while (not t.stop) && t.generation = !seen do
      Condition.wait t.ready t.mutex
    done;
    t.idle_s.(i) <- t.idle_s.(i) +. (t.clock () -. parked_at);
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen := t.generation;
      let task = t.tasks.(i) in
      Mutex.unlock t.mutex;
      task ();
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.done_;
      Mutex.unlock t.mutex
    end
  done

let create ?(clock = Unix.gettimeofday) n =
  let n = max 1 n in
  let t =
    { n;
      mutex = Mutex.create ();
      ready = Condition.create ();
      done_ = Condition.create ();
      tasks = Array.make n nothing;
      generation = 0;
      pending = 0;
      stop = false;
      busy = false;
      idle_s = Array.make n 0.;
      async_failures = Array.make n None;
      clock;
      owner = Domain.self ();
      workers = [||];
    }
  in
  t.workers <-
    Array.init (n - 1) (fun k -> Domain.spawn (fun () -> worker_loop t (k + 1)));
  t

let shutdown t =
  if t.workers <> [||] then begin
    Mutex.lock t.mutex;
    if not t.stop then begin
      t.stop <- true;
      Condition.broadcast t.ready
    end;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers
  end

let idle_times t = Array.copy t.idle_s

(* Inline fallback: pools are barrier-stepped from exactly one
   coordinating domain.  A step issued from anywhere else — a worker
   domain (nested use, e.g. data translation running inside a shard
   job), or the owner while a step is already in flight — degrades to
   plain sequential execution instead of deadlocking on the barrier. *)
let can_drive t = t.n > 1 && Domain.self () = t.owner && not t.busy

let step t f =
  if not (can_drive t) then Array.init t.n f
  else begin
    let results = Array.make t.n None in
    let failures = Array.make t.n None in
    let task i () =
      try results.(i) <- Some (f i)
      with e -> failures.(i) <- Some e
    in
    Mutex.lock t.mutex;
    t.busy <- true;
    t.tasks <- Array.init t.n (fun i -> task i);
    t.pending <- t.n - 1;
    t.generation <- t.generation + 1;
    Condition.broadcast t.ready;
    Mutex.unlock t.mutex;
    task 0 ();
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.done_ t.mutex
    done;
    t.busy <- false;
    Mutex.unlock t.mutex;
    Array.iteri
      (fun worker -> function
        | Some error -> raise (Worker_error { worker; error })
        | None -> ())
      failures;
    Array.map Option.get results
  end

let with_pool ?clock n f =
  let t = create ?clock n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Non-barrier mode: one long-running job per spawned worker, no
   completion wait on submission.  The caller keeps slot 0 for itself
   (typically a coordinator loop that consumes what the jobs publish)
   and joins the jobs with [drain].  When the pool cannot be driven —
   one slot, nested use, or a step already in flight — the jobs run
   synchronously on the caller before [submit] returns, so jobs that
   rendezvous with the submitting domain must only be submitted to a
   freshly created, self-owned pool. *)
let submit t f =
  let task i () =
    try f i with e -> t.async_failures.(i) <- Some e
  in
  if not (can_drive t) then
    for i = 1 to t.n - 1 do
      task i ()
    done
  else begin
    Mutex.lock t.mutex;
    t.busy <- true;
    t.tasks <- Array.init t.n (fun i -> if i = 0 then nothing else task i);
    t.pending <- t.n - 1;
    t.generation <- t.generation + 1;
    Condition.broadcast t.ready;
    Mutex.unlock t.mutex
  end

let quiescent t =
  if not t.busy then true
  else begin
    Mutex.lock t.mutex;
    let q = t.pending = 0 in
    Mutex.unlock t.mutex;
    q
  end

let drain t =
  if t.busy then begin
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.done_ t.mutex
    done;
    t.busy <- false;
    Mutex.unlock t.mutex
  end;
  Array.iteri
    (fun worker -> function
      | Some error ->
          t.async_failures.(worker) <- None;
          raise (Worker_error { worker; error })
      | None -> ())
    t.async_failures

let map_list ?max_workers t f xs =
  (* [max_workers] caps the number of slots that do work: on hosts
     with fewer cores than pool slots, striding CPU-bound work across
     every slot oversubscribes the machine and runs slower than
     sequential (BENCH_PR5 measured data translation at 0.31x with 8
     domains on one core).  Surplus slots return immediately. *)
  let m =
    match max_workers with None -> t.n | Some k -> max 1 (min k t.n)
  in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when m = 1 || not (can_drive t) -> List.map f xs
  | xs ->
      let arr = Array.of_list xs in
      let len = Array.length arr in
      let out = Array.make len None in
      (* strided static slices: element j belongs to worker (j mod m),
         so the split is independent of list contents and the output
         order is exactly the input order *)
      ignore
        (step t (fun w ->
             if w < m then begin
               let j = ref w in
               while !j < len do
                 out.(!j) <- Some (f arr.(!j));
                 j := !j + m
               done
             end));
      Array.to_list (Array.map Option.get out)
