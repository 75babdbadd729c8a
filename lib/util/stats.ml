type summary = {
  n : int;
  mean : float;
  sd : float;
  cv : float;
  min : float;
  max : float;
}

(* The kernels work on float arrays, whose elements are unboxed. Each
   is a left-to-right loop with the same float operations, in the same
   order, as the list folds it replaced, so the list and array entry
   points agree bit for bit. [fmin] and [fmax] are [Stdlib.min] and
   [Stdlib.max] at type float. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

let mean_array a =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int (Array.length a)

let sd_array a =
  if Array.length a < 2 then 0.0
  else begin
    let m = mean_array a in
    let ss = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      ss := !ss +. ((a.(i) -. m) ** 2.0)
    done;
    sqrt (!ss /. float_of_int (Array.length a - 1))
  end

let summarize_array a =
  if Array.length a = 0 then invalid_arg "Stats.summarize: empty";
  let m = mean_array a in
  let s = sd_array a in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to Array.length a - 1 do
    lo := fmin !lo a.(i);
    hi := fmax !hi a.(i)
  done;
  {
    n = Array.length a;
    mean = m;
    sd = s;
    cv = (if m = 0.0 then 0.0 else s /. m);
    min = !lo;
    max = !hi;
  }

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> mean_array (Array.of_list xs)

let sd xs = sd_array (Array.of_list xs)
let summarize xs = summarize_array (Array.of_list xs)

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ ->
      if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: bad p";
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then a.(lo)
      else
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let rate bs =
  match bs with
  | [] -> 0.0
  | _ ->
      let t = List.length (List.filter Fun.id bs) in
      100.0 *. float_of_int t /. float_of_int (List.length bs)

let pp_mean_sd fmt s =
  if s.mean >= 100.0 then Format.fprintf fmt "%.0f (%.2f)" s.mean s.sd
  else Format.fprintf fmt "%.1f (%.2f)" s.mean s.sd
