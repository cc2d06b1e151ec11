(* Log-linear histogram, HdrHistogram-style, specialised to OCaml's
   63-bit immediate ints.

   Bucket layout for sub_bits = p: values in [0, 2^p) map to index v
   (exact, width-1 buckets).  A value v >= 2^p with top bit k
   (2^k <= v < 2^(k+1)) maps to

     index = ((k - p + 1) lsl p) lor ((v - 2^k) lsr (k - p))

   i.e. each power-of-two range [2^k, 2^(k+1)) contributes 2^p
   sub-buckets of width 2^(k-p).  For k = p this continues the linear
   region seamlessly.  k is at most 61 for positive ints, so the
   table has (63 - p) * 2^p slots — about 7k cells at the default
   p = 7.

   The slots are stored as 63 - p rows of 2^p cells (row = index lsr p),
   and a row is allocated the first time a value lands in it.  A run
   touches a handful of rows, and at the default p a row is 128 words:
   small enough for the minor heap, so creating a histogram allocates
   nothing on the major heap. *)

type t = {
  sub_bits : int;
  sub_count : int; (* 2^sub_bits *)
  rows : int array array; (* [||] until the row is first used *)
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create ?(sub_bits = 7) () =
  if sub_bits < 0 || sub_bits > 14 then
    invalid_arg "Hdr.create: sub_bits outside [0, 14]";
  {
    sub_bits;
    sub_count = 1 lsl sub_bits;
    rows = Array.make (63 - sub_bits) [||];
    total = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

let clear t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.rows;
  t.total <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

(* Position of the highest set bit of v > 0, allocation-free (no refs,
   no tuples — just shadowing). *)
let bit_length v =
  let k = if v lsr 32 <> 0 then 32 else 0 in
  let k = if v lsr (k + 16) <> 0 then k + 16 else k in
  let k = if v lsr (k + 8) <> 0 then k + 8 else k in
  let k = if v lsr (k + 4) <> 0 then k + 4 else k in
  let k = if v lsr (k + 2) <> 0 then k + 2 else k in
  if v lsr (k + 1) <> 0 then k + 1 else k

let index t v =
  if v < t.sub_count then v
  else
    let k = bit_length v in
    ((k - t.sub_bits + 1) lsl t.sub_bits)
    lor ((v - (1 lsl k)) lsr (k - t.sub_bits))

(* Inverse: lowest value mapping to index i. *)
let value_at t i =
  if i < t.sub_count then i
  else
    let m = i lsr t.sub_bits in
    let k = m + t.sub_bits - 1 in
    let sub = i land (t.sub_count - 1) in
    (1 lsl k) lor (sub lsl (k - t.sub_bits))

let bucket_width t i =
  if i < t.sub_count then 1
  else
    let k = (i lsr t.sub_bits) + t.sub_bits - 1 in
    1 lsl (k - t.sub_bits)

let ensure_row t r =
  let row = t.rows.(r) in
  if Array.length row > 0 then row
  else begin
    let row = Array.make t.sub_count 0 in
    t.rows.(r) <- row;
    row
  end

let add t v =
  let v = if v < 0 then 0 else v in
  let i = index t v in
  let row = ensure_row t (i lsr t.sub_bits) in
  let c = i land (t.sub_count - 1) in
  row.(c) <- row.(c) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let sum t = t.sum
let mean t = if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v
let sub_bits t = t.sub_bits

let lowest_equivalent t v =
  let v = if v < 0 then 0 else v in
  value_at t (index t v)

let highest_equivalent t v =
  let v = if v < 0 then 0 else v in
  let i = index t v in
  value_at t i + bucket_width t i - 1

(* The bucket holding the first count at or past rank, as the highest
   value it covers clamped to the exact extremes. *)
let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Hdr.quantile: q outside [0,1]";
  if t.total = 0 then 0
  else begin
    let r = int_of_float (Float.ceil (q *. float_of_int t.total)) in
    let rank = if r < 1 then 1 else if r > t.total then t.total else r in
    let rec walk r c cum =
      if r >= Array.length t.rows then t.max_v
      else
        let row = t.rows.(r) in
        if c >= Array.length row then walk (r + 1) 0 cum
        else
          let cum = cum + row.(c) in
          if cum >= rank then
            let i = (r lsl t.sub_bits) lor c in
            let v = value_at t i + bucket_width t i - 1 in
            if v < t.min_v then t.min_v else if v > t.max_v then t.max_v else v
          else walk r (c + 1) cum
    in
    walk 0 0 0
  end

let iter_buckets t f =
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c n ->
          if n <> 0 then
            let i = (r lsl t.sub_bits) lor c in
            f ~value:(value_at t i + bucket_width t i - 1) ~count:n)
        row)
    t.rows
