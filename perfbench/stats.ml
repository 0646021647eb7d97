(* Order statistics shared by every workload.

   On a shared 2-vCPU VM the same work runs up to twice as slow in
   phases lasting from under a second to longer than a run.  So no
   timed figure rests on one measurement: every item is timed in many
   passes, reduced to its median pass, and only then summarized across
   items. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Linear interpolation between order statistics (the "inclusive"
   method of Python's statistics.quantiles). *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i >= n - 1 then s.(n - 1)
  else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = sum a /. float_of_int (Array.length a)

(* Interquartile range as a share of the median. *)
let spread a =
  let m = median a in
  if m = 0.0 then 0.0 else (quantile a 0.75 -. quantile a 0.25) /. m

type tail = { value : float; percentile : float; samples : int }

(* The highest-ranked sample that still has [beyond] samples above it,
   and the percentile it sits at: a tail figure never rests on fewer
   than [beyond] observations past it. *)
let tail ?(beyond = 10) a =
  let s = sorted a in
  let n = Array.length s in
  if n <= beyond then
    invalid_arg
      (Printf.sprintf "Stats.tail: %d samples leave none with %d beyond" n beyond);
  let i = n - 1 - beyond in
  { value = s.(i); percentile = 100.0 *. float_of_int (i + 1) /. float_of_int n; samples = n }

(* [passes.(p).(i)] is item [i]'s time in pass [p]; the result is each
   item's median over the passes, so a slow phase moves an item only
   if it covers half of that item's passes. *)
let per_item_median passes =
  match passes with
  | [||] -> invalid_arg "Stats.per_item_median: no passes"
  | _ ->
    let n = Array.length passes.(0) in
    Array.init n (fun i -> median (Array.map (fun pass -> pass.(i)) passes))

(* Total length of the union of closed intervals [(lo, hi)], each first
   clipped to [clip]. *)
let union_length ~clip:(clip_lo, clip_hi) intervals =
  let clipped =
    List.filter_map
      (fun (lo, hi) ->
        let lo = Float.max lo clip_lo and hi = Float.min hi clip_hi in
        if hi > lo then Some (lo, hi) else None)
      intervals
  in
  let by_start = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | None -> (total, Some (lo, hi))
        | Some (clo, chi) ->
          if lo <= chi then (total, Some (clo, Float.max chi hi))
          else (total +. (chi -. clo), Some (lo, hi)))
      (0.0, None) by_start
  in
  match last with None -> total | Some (lo, hi) -> total +. (hi -. lo)

(* A span's self time: its length minus the part of it that its
   children cover (overlapping children count once). *)
let self_time ~start ~stop children =
  stop -. start -. union_length ~clip:(start, stop) children

(* ---------- self-test (bench.exe --self-test) ---------- *)

let self_test () =
  let check name ok = if not ok then failwith ("stats self-test failed: " ^ name) in
  let close a b = Float.abs (a -. b) < 1e-12 in
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* tail rank: exactly [beyond] samples above the reported one *)
  let t = tail (ramp 20) in
  check "tail of 20 is the 10th" (close t.value 10.0 && t.samples = 20);
  check "tail percentile" (close t.percentile 50.0);
  let t = tail (ramp 100) in
  check "tail of 100 is the 90th" (close t.value 90.0 && close t.percentile 90.0);
  let t = tail [| 5.0; 1.0; 4.0; 2.0; 3.0; 11.0; 10.0; 9.0; 8.0; 7.0; 6.0 |] in
  check "tail of 11 is the minimum" (close t.value 1.0);
  check "tail refuses 10 samples"
    (match tail (ramp 10) with _ -> false | exception Invalid_argument _ -> true);
  (* quantiles interpolate between order statistics *)
  check "median odd" (close (median [| 3.0; 1.0; 2.0 |]) 2.0);
  check "median even" (close (median [| 4.0; 1.0; 3.0; 2.0 |]) 2.5);
  check "quartile" (close (quantile (ramp 5) 0.25) 2.0);
  (* per-item aggregation: a slow pass moves no item, and each item
     keeps its own median *)
  let passes =
    [| [| 1.0; 12.0 |]; [| 2.0; 20.0 |]; [| 50.0; 500.0 |]; [| 1.5; 10.0 |]; [| 1.2; 15.0 |] |]
  in
  let m = per_item_median passes in
  check "per-item median" (close m.(0) 1.5 && close m.(1) 15.0);
  check "per-item median of one pass" (per_item_median [| [| 3.0; 4.0 |] |] = [| 3.0; 4.0 |]);
  (* interval-union self time *)
  check "union of overlapping children"
    (close (union_length ~clip:(0.0, 10.0) [ (1.0, 3.0); (2.0, 5.0); (8.0, 12.0) ]) 6.0);
  check "self time" (close (self_time ~start:0.0 ~stop:10.0 [ (1.0, 3.0); (2.0, 5.0) ]) 6.0);
  check "nested children count once"
    (close (self_time ~start:0.0 ~stop:4.0 [ (0.0, 4.0); (1.0, 2.0) ]) 0.0);
  check "disjoint children"
    (close (union_length ~clip:(0.0, 9.0) [ (5.0, 6.0); (1.0, 2.0) ]) 2.0);
  check "children outside the parent"
    (close (self_time ~start:2.0 ~stop:3.0 [ (5.0, 6.0) ]) 1.0)
