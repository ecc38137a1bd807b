type key = { epoch : int; shard : int; seq : int }

let compare_key a b =
  match Int.compare a.epoch b.epoch with
  | 0 -> (
      match Int.compare a.shard b.shard with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  | c -> c

let pp_key ppf k =
  Format.fprintf ppf "(epoch %d, shard %d, seq %d)" k.epoch k.shard k.seq

(* One cell per (shard, row); rows are released strictly in order, so a
   plain matrix indexed by the static row counts is enough — no search,
   no sorting, O(1) per publish and O(shards) per pop. *)
type 'a t = {
  rows : int array;  (* declared row count per shard *)
  cells : 'a option array array;  (* cells.(shard).(row) *)
  total : int;
  mutable next : int;  (* first unreleased row *)
}

let create ~rows =
  { rows = Array.copy rows;
    cells = Array.map (fun n -> Array.make (max n 0) None) rows;
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
  if t.cells.(shard).(epoch) <> None then
    invalid_arg "Epoch.publish: cell already published";
  t.cells.(shard).(epoch) <- Some v

let pop_row t =
  if t.next >= t.total then None
  else begin
    let r = t.next in
    let complete = ref true in
    Array.iteri
      (fun s n -> if r < n && t.cells.(s).(r) = None then complete := false)
      t.rows;
    if not !complete then None
    else begin
      let row = ref [] in
      for s = Array.length t.rows - 1 downto 0 do
        if r < t.rows.(s) then
          match t.cells.(s).(r) with
          | Some v ->
              row := (s, v) :: !row;
              t.cells.(s).(r) <- None (* release for GC *)
          | None -> assert false
      done;
      t.next <- r + 1;
      Some (r, !row)
    end
  end
