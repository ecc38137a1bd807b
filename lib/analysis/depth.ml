(* Navigation-depth / demand-closure pass.

   Live migration faults in a request's demand closure before
   dual-running it, and [Migrate.translate] expands that closure
   through exactly two association hops.  This pass computes a
   program's maximum association-hop depth statically, so the cap
   becomes an admission-time verdict: programs within the cap are
   admitted with proof, deeper ones are refused up front with the
   offending access path named (AD001) — instead of failing with a
   generic serving-time error mid-migration. *)

open Ccv_common
open Ccv_abstract

let default_cap = 2
(* = the two [expand] rounds in Migrate.translate; keep in sync. *)

(* Association hops in one access sequence: a paired
   [Assoc_via A; Via_assoc via A] crosses one association, an unpaired
   association step also crosses one.  SELF and THROUGH steps stay on
   already-reached records. *)
let hops_of_query q =
  let rec go n = function
    | [] -> n
    | Apattern.Assoc_via _ :: Apattern.Via_assoc _ :: rest -> go (n + 1) rest
    | (Apattern.Assoc_via _ | Apattern.Via_assoc _) :: rest -> go (n + 1) rest
    | (Apattern.Self _ | Apattern.Through _) :: rest -> go n rest
  in
  go 0 q

let render_path q = String.concat " -> " (Apattern.names_of q)

(* The deepest query, with its hop count. *)
let deepest p =
  Traverse.fold_queries
    (fun acc q ->
      let h = hops_of_query q in
      match acc with
      | Some (best, _) when best >= h -> acc
      | _ -> Some (h, q))
    None p

let max_hops p = match deepest p with None -> 0 | Some (h, _) -> h

let check ?(cap = default_cap) p =
  match deepest p with
  | Some (h, q) when h > cap ->
      Error
        (Diagnostic.errf ~code:"AD001" ~path:(render_path q)
           "navigation depth %d exceeds the %d-hop demand closure: access \
            path %s cannot be faulted in during live migration"
           h cap (render_path q))
  | _ -> Ok ()
