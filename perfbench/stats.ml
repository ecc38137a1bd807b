(* Order statistics over float samples. *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile, [p] in [0, 1]; nan on no samples. *)
let percentile p xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

(* Midpoint median. *)
let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

(* Interquartile mean: the mean of the values left after dropping the
   lowest and highest quarter.  Robust to a round disturbed by other
   load like a median, but not stuck on one sample, so it does not
   inherit the clock's quantization. *)
let iqm xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = n / 4 in
      let m = n - (2 * k) in
      Array.fold_left ( +. ) 0. (Array.sub a k m) /. float m
