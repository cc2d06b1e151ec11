(* Tests for the statistics helpers. *)

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkfa eps = Alcotest.check (Alcotest.float eps)

open Stats

let welford_mean_variance () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  checkf "mean" 5. (Welford.mean w);
  (* Known sample: population variance 4, sample variance 32/7. *)
  checkfa 1e-9 "variance" (32. /. 7.) (Welford.variance w);
  Alcotest.check Alcotest.int "count" 8 (Welford.count w)

let welford_empty_and_single () =
  let w = Welford.create () in
  checkf "empty mean" 0. (Welford.mean w);
  checkf "empty var" 0. (Welford.variance w);
  checkf "empty ci" 0. (Welford.ci95 w);
  Welford.add w 42.;
  checkf "single mean" 42. (Welford.mean w);
  checkf "single var" 0. (Welford.variance w);
  checkf "single ci" 0. (Welford.ci95 w)

let welford_ci_small_sample () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 1.; 2.; 3. ];
  (* df=2 -> t=4.303; s = 1; ci = 4.303 * 1/sqrt(3). *)
  checkfa 1e-3 "ci95" (4.303 /. sqrt 3.) (Welford.ci95 w)

let welford_t_table () =
  checkfa 1e-9 "df1" 12.706 (Welford.t_critical ~df:1);
  checkfa 1e-9 "df30" 2.042 (Welford.t_critical ~df:30);
  checkfa 1e-9 "df1000 ~ z" 1.96 (Welford.t_critical ~df:1000);
  Alcotest.check_raises "df0"
    (Invalid_argument "Welford.t_critical: df must be positive") (fun () ->
      ignore (Welford.t_critical ~df:0))

(* ci95 across the t-table boundary: with df beyond the table the
   critical value falls back to the normal 1.96, and the half-width
   must follow t * s / sqrt(n) exactly on both sides of the edge. *)
let welford_ci_beyond_table () =
  let expect_ci n =
    let w = Welford.create () in
    for i = 1 to n do
      Welford.add w (float_of_int (i mod 5))
    done;
    let expected =
      Welford.t_critical ~df:(n - 1)
      *. Welford.stddev w
      /. sqrt (float_of_int n)
    in
    checkfa 1e-12 (Printf.sprintf "ci n=%d" n) expected (Welford.ci95 w);
    Welford.t_critical ~df:(n - 1)
  in
  (* df 30: last tabulated row; df 31 and beyond: z fallback. *)
  checkfa 1e-9 "edge uses table" 2.042 (expect_ci 31);
  checkfa 1e-9 "past edge uses z" 1.96 (expect_ci 32);
  checkfa 1e-9 "far past edge" 1.96 (expect_ci 200)

let welford_merge () =
  let a = Welford.create () and b = Welford.create () and whole = Welford.create () in
  let xs = [ 1.; 5.; 2.; 8.; 3. ] and ys = [ 9.; 4.; 7. ] in
  List.iter (Welford.add a) xs;
  List.iter (Welford.add b) ys;
  List.iter (Welford.add whole) (xs @ ys);
  let m = Welford.merge a b in
  checkfa 1e-9 "merged mean" (Welford.mean whole) (Welford.mean m);
  checkfa 1e-9 "merged var" (Welford.variance whole) (Welford.variance m);
  Alcotest.check Alcotest.int "merged count" 8 (Welford.count m)

let welford_merge_empty () =
  let a = Welford.create () and b = Welford.create () in
  Welford.add b 3.;
  let m = Welford.merge a b in
  checkf "mean" 3. (Welford.mean m);
  let m2 = Welford.merge b a in
  checkf "mean sym" 3. (Welford.mean m2)

let welford_estimator_prop =
  QCheck.Test.make ~name:"welford matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let w = Welford.create () in
      List.iter (Welford.add w) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      abs_float (Welford.mean w -. mean) < 1e-6)

(* ---- Hdr: log-bucketed histogram -------------------------------------- *)

let hdr_exact_small () =
  let h = Hdr.create () in
  List.iter (Hdr.add h) [ 5; 1; 3; 2; 4 ];
  (* Values below 2^sub_bits live in width-1 buckets: exact. *)
  Alcotest.check Alcotest.int "median" 3 (Hdr.quantile h 0.5);
  Alcotest.check Alcotest.int "min" 1 (Hdr.quantile h 0.);
  Alcotest.check Alcotest.int "max" 5 (Hdr.quantile h 1.);
  Alcotest.check Alcotest.int "count" 5 (Hdr.count h);
  Alcotest.check Alcotest.int "sum" 15 (Hdr.sum h);
  checkf "mean" 3. (Hdr.mean h)

let hdr_empty_and_bounds () =
  let h = Hdr.create () in
  Alcotest.check Alcotest.int "empty quantile" 0 (Hdr.quantile h 0.5);
  Alcotest.check Alcotest.int "empty min" 0 (Hdr.min_value h);
  Alcotest.check Alcotest.int "empty max" 0 (Hdr.max_value h);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Hdr.quantile: q outside [0,1]") (fun () ->
      ignore (Hdr.quantile h 1.5));
  Alcotest.check_raises "sub_bits out of range"
    (Invalid_argument "Hdr.create: sub_bits outside [0, 14]") (fun () ->
      ignore (Hdr.create ~sub_bits:15 ()));
  Hdr.add h (-3);
  Alcotest.check Alcotest.int "negatives clamp to 0" 0 (Hdr.quantile h 1.)

let hdr_extremes_clamped () =
  let h = Hdr.create () in
  Hdr.add h 7;
  Hdr.add h 5_000_000;
  Hdr.add h 5_000_000;
  (* Quantiles clamp to the recorded min/max, so single-valued tails
     come back exact even in wide buckets. *)
  Alcotest.check Alcotest.int "p0 exact" 7 (Hdr.quantile h 0.);
  Alcotest.check Alcotest.int "p100 exact" 5_000_000 (Hdr.quantile h 1.);
  Alcotest.check Alcotest.int "max_value" 5_000_000 (Hdr.max_value h);
  Alcotest.check Alcotest.int "min_value" 7 (Hdr.min_value h)

(* HDR quantile vs the exact sorted-array nearest-rank answer: always
   >= the exact value, and within the same bucket (so the error is
   bounded by the bucket's equivalent-value range). *)
let hdr_vs_sorted_prop =
  QCheck.Test.make ~count:200 ~name:"hdr quantile within bucket of exact"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 400) (int_bound 2_000_000))
        (make ~print:string_of_float Gen.(float_bound_inclusive 1.0)))
    (fun (xs, q) ->
      let h = Hdr.create () in
      List.iter (Hdr.add h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let exact = sorted.(rank - 1) in
      let approx = Hdr.quantile h q in
      approx >= exact
      && approx <= Hdr.highest_equivalent h exact
      && Hdr.lowest_equivalent h approx <= exact)

(* The flat-array histogram Hdr used to be — one (63 - p) * 2^p array,
   allocated whole at create — kept as the oracle for the row layout. *)
module Flat_hdr = struct
  type t = {
    sub_bits : int;
    sub_count : int;
    counts : int array;
    mutable total : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create ~sub_bits =
    let sub_count = 1 lsl sub_bits in
    {
      sub_bits;
      sub_count;
      counts = Array.make ((63 - sub_bits) * sub_count) 0;
      total = 0;
      sum = 0;
      min_v = max_int;
      max_v = 0;
    }

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.total <- 0;
    t.sum <- 0;
    t.min_v <- max_int;
    t.max_v <- 0

  let rec bit_length v = if v <= 1 then 0 else 1 + bit_length (v lsr 1)

  let index t v =
    if v < t.sub_count then v
    else
      let k = bit_length v in
      ((k - t.sub_bits + 1) lsl t.sub_bits)
      lor ((v - (1 lsl k)) lsr (k - t.sub_bits))

  let value_at t i =
    if i < t.sub_count then i
    else
      let k = (i lsr t.sub_bits) + t.sub_bits - 1 in
      (1 lsl k) lor ((i land (t.sub_count - 1)) lsl (k - t.sub_bits))

  let bucket_width t i =
    if i < t.sub_count then 1
    else 1 lsl ((i lsr t.sub_bits) - 1)

  let add t v =
    let v = if v < 0 then 0 else v in
    let i = index t v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let min_value t = if t.total = 0 then 0 else t.min_v

  let mean t =
    if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total

  let quantile t q =
    if t.total = 0 then 0
    else begin
      let r = int_of_float (Float.ceil (q *. float_of_int t.total)) in
      let rank = if r < 1 then 1 else if r > t.total then t.total else r in
      let rec walk i cum =
        if i >= Array.length t.counts then t.max_v
        else
          let cum = cum + t.counts.(i) in
          if cum >= rank then
            let v = value_at t i + bucket_width t i - 1 in
            if v < t.min_v then t.min_v else if v > t.max_v then t.max_v else v
          else walk (i + 1) cum
      in
      walk 0 0
    end

  let buckets t =
    let acc = ref [] in
    Array.iteri
      (fun i c ->
        if c <> 0 then acc := (value_at t i + bucket_width t i - 1, c) :: !acc)
      t.counts;
    List.rev !acc
end

type hdr_op = Add of bool * int | Clear of bool

(* Values over every magnitude: 0, negatives (clamped), the linear
   region, each power-of-two range, and the top of the int range. *)
let hdr_value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int_bound 300);
        (4, map2 (fun k x -> (x land max_int) lsr k) (int_bound 62) int);
        (1, oneofl [ 0; -1; -1000; min_int; max_int; max_int - 1; 1 lsl 61 ]);
        (1, int);
      ])

let hdr_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun a v -> Add (a, v)) bool hdr_value_gen);
        (1, map (fun a -> Clear a) bool);
      ])

let print_hdr_op = function
  | Add (a, v) -> Printf.sprintf "add %c %d" (if a then 'A' else 'B') v
  | Clear a -> Printf.sprintf "clear %c" (if a then 'A' else 'B')

(* Two histograms and their flat twins run the same random ops; every
   reading agrees, at every sub_bits. *)
let hdr_matches_flat_prop =
  QCheck.Test.make ~count:150 ~name:"hdr rows match the flat array"
    QCheck.(
      make
        ~print:(fun (p, ops) ->
          Printf.sprintf "sub_bits %d: %s" p
            (String.concat "; " (List.map print_hdr_op ops)))
        Gen.(pair (int_bound 14) (list_size (0 -- 40) hdr_op_gen)))
    (fun (sub_bits, ops) ->
      let a = Hdr.create ~sub_bits () and b = Hdr.create ~sub_bits () in
      let fa = Flat_hdr.create ~sub_bits and fb = Flat_hdr.create ~sub_bits in
      let pick x (h, f) (h', f') = if x then (h, f) else (h', f') in
      List.iter
        (function
          | Add (x, v) ->
              let h, f = pick x (a, fa) (b, fb) in
              Hdr.add h v;
              Flat_hdr.add f v
          | Clear x ->
              let h, f = pick x (a, fa) (b, fb) in
              Hdr.clear h;
              Flat_hdr.clear f)
        ops;
      let same h (f : Flat_hdr.t) =
        let buckets = ref [] in
        Hdr.iter_buckets h (fun ~value ~count ->
            buckets := (value, count) :: !buckets);
        Hdr.count h = f.total && Hdr.sum h = f.sum
        && Hdr.min_value h = Flat_hdr.min_value f
        && Hdr.max_value h = f.max_v
        && Float.equal (Hdr.mean h) (Flat_hdr.mean f)
        && List.rev !buckets = Flat_hdr.buckets f
        && List.for_all
             (fun q -> Hdr.quantile h q = Flat_hdr.quantile f q)
             [ 0.; 0.001; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ]
      in
      same a fa && same b fb)

let table_renders () =
  let s =
    Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.check Alcotest.int "4 lines" 4 (List.length lines);
  (* All lines same width. *)
  (match lines with
  | first :: rest ->
      List.iter
        (fun l -> Alcotest.check Alcotest.int "aligned" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "no output");
  checkb "contains alpha" true
    (List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha") lines)

let table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  checkb "renders without error" true (String.length s > 0)

let mean_ci_format () =
  Alcotest.check Alcotest.string "format" "0.987 ± 0.004"
    (Table.mean_ci ~mean:0.9871 ~ci:0.0042)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "welford",
        [
          Alcotest.test_case "mean/variance" `Quick welford_mean_variance;
          Alcotest.test_case "empty/single" `Quick welford_empty_and_single;
          Alcotest.test_case "ci small sample" `Quick welford_ci_small_sample;
          Alcotest.test_case "t table" `Quick welford_t_table;
          Alcotest.test_case "ci beyond t-table" `Quick
            welford_ci_beyond_table;
          Alcotest.test_case "merge" `Quick welford_merge;
          Alcotest.test_case "merge empty" `Quick welford_merge_empty;
          qt welford_estimator_prop;
        ] );
      ( "hdr",
        [
          Alcotest.test_case "exact small" `Quick hdr_exact_small;
          Alcotest.test_case "empty and bounds" `Quick hdr_empty_and_bounds;
          Alcotest.test_case "extremes clamped" `Quick hdr_extremes_clamped;
          qt hdr_vs_sorted_prop;
          qt hdr_matches_flat_prop;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick table_renders;
          Alcotest.test_case "pads short rows" `Quick table_pads_short_rows;
          Alcotest.test_case "mean_ci" `Quick mean_ci_format;
        ] );
    ]
