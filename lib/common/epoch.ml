(* One atomic cell per (shard, row); rows are released strictly in
   order, so a matrix indexed by the static row counts is enough — no
   search, no sorting, O(1) per publish and O(shards) per pop.  Each
   cell has exactly one writer (the holder of its shard's token) and
   one reader (the coordinator), so a CAS from [None] is the whole
   hand-off: [Atomic] is sequentially consistent, so a payload built
   before its publish is fully visible to the pop that sees it. *)
type 'a t = {
  rows : int array;  (* declared row count per shard *)
  cells : 'a option Atomic.t array array;  (* cells.(shard).(row) *)
  total : int;
  mutable next : int;  (* first unreleased row; coordinator only *)
}

let create ~rows =
  { rows = Array.copy rows;
    cells =
      Array.map
        (fun n -> Array.init (max n 0) (fun _ -> Atomic.make None))
        rows;
    total = Array.fold_left max 0 rows;
    next = 0;
  }

let total_rows t = t.total
let frontier t = t.next

let publish t ~shard ~epoch v =
  if shard < 0 || shard >= Array.length t.rows then
    invalid_arg "Epoch.publish: shard out of range";
  if epoch < 0 || epoch >= t.rows.(shard) then
    invalid_arg "Epoch.publish: epoch beyond the shard's declared rows";
  if not (Atomic.compare_and_set t.cells.(shard).(epoch) None (Some v)) then
    invalid_arg "Epoch.publish: cell already published"

let pop_row t =
  if t.next >= t.total then None
  else begin
    let r = t.next in
    let complete = ref true in
    Array.iteri
      (fun s n ->
        if r < n && Option.is_none (Atomic.get t.cells.(s).(r)) then
          complete := false)
      t.rows;
    if not !complete then None
    else begin
      let row = ref [] in
      for s = Array.length t.rows - 1 downto 0 do
        if r < t.rows.(s) then
          match Atomic.exchange t.cells.(s).(r) None (* release for GC *) with
          | Some v -> row := (s, v) :: !row
          | None -> assert false
      done;
      t.next <- r + 1;
      Some (r, !row)
    end
  end
