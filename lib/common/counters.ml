type t = { reads : int Atomic.t; writes : int Atomic.t }

let create () = { reads = Atomic.make 0; writes = Atomic.make 0 }
let record_read t = Atomic.incr t.reads
let record_write t = Atomic.incr t.writes
let record_reads t n = ignore (Atomic.fetch_and_add t.reads n)
let record_writes t n = ignore (Atomic.fetch_and_add t.writes n)
let reads t = Atomic.get t.reads
let writes t = Atomic.get t.writes
let total t = Atomic.get t.reads + Atomic.get t.writes

let reset t =
  Atomic.set t.reads 0;
  Atomic.set t.writes 0

let snapshot t = (Atomic.get t.reads, Atomic.get t.writes)
