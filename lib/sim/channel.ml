(* Noise channels as Kraus operator sets, and their superoperator forms
   for the vectorized density simulator.

   With vec(rho) indexed so that a channel on qubit q acts on index-qubits
   (q, q+n) — ket bit more significant — the superoperator is
   S = sum_m K_m (x) conj(K_m). *)

open Linalg

type t = { name : string; kraus : Mat.t list }

let make name kraus =
  (match kraus with
  | [] -> invalid_arg "Channel.make: no Kraus operators"
  | first :: _ ->
    let d = Mat.rows first in
    (* completeness: sum K^dag K = I *)
    let acc =
      List.fold_left (fun acc k -> Mat.add acc (Mat.mul (Mat.dagger k) k)) (Mat.zero d d) kraus
    in
    if not (Mat.equal ~eps:1e-9 acc (Mat.identity d)) then
      invalid_arg (Printf.sprintf "Channel.make: %s is not trace preserving" name));
  { name; kraus }

let name t = t.name
let kraus t = t.kraus
let dim t = match t.kraus with k :: _ -> Mat.rows k | [] -> assert false

(* Sum the K (x) conj(K) products into one matrix, entry by entry, in
   Kraus order.  A zero entry of K or of conj(K) is skipped: the product
   it would add is a signed zero, and adding a signed zero to an entry
   that started at +0.0 (so is never -0.0) changes nothing, so the bits
   are those of summing whole Kronecker products with [Mat.add]. *)
let superoperator t =
  let d = dim t in
  let dd = d * d in
  let s = Mat.zero dd dd in
  let sd = Mat.unsafe_data s in
  List.iter
    (fun k ->
      let kd = Mat.unsafe_data k in
      for i = 0 to d - 1 do
        for j = 0 to d - 1 do
          let ka = 2 * ((i * d) + j) in
          let ar = kd.(ka) and ai = kd.(ka + 1) in
          if ar <> 0.0 || ai <> 0.0 then
            for k' = 0 to d - 1 do
              for l = 0 to d - 1 do
                let kb = 2 * ((k' * d) + l) in
                let br = kd.(kb) and bi = -.kd.(kb + 1) in
                if br <> 0.0 || bi <> 0.0 then begin
                  let e = 2 * ((((i * d) + k') * dd) + (j * d) + l) in
                  sd.(e) <- sd.(e) +. ((ar *. br) -. (ai *. bi));
                  sd.(e + 1) <- sd.(e + 1) +. ((ar *. bi) +. (ai *. br))
                end
              done
            done
        done
      done)
    t.kraus;
  s

let identity d = make "identity" [ Mat.identity d ]

(* (1-p) rho + p/3 sum_P P rho P over X, Y, Z. *)
let depolarizing_1q p =
  assert (p >= 0.0 && p <= 1.0);
  if p = 0.0 then identity 2
  else
    make
      (Printf.sprintf "depol1(%.4g)" p)
      (Mat.scale_real (Float.sqrt (1.0 -. p)) Gates.Oneq.identity
      :: List.map
           (fun m -> Mat.scale_real (Float.sqrt (p /. 3.0)) m)
           [ Gates.Oneq.x; Gates.Oneq.y; Gates.Oneq.z ])

(* (1-p) rho + p/15 sum over the 15 non-identity two-qubit Paulis. *)
let depolarizing_2q p =
  assert (p >= 0.0 && p <= 1.0);
  if p = 0.0 then identity 4
  else begin
    let paulis = ref [] in
    for a = 0 to 3 do
      for b = 0 to 3 do
        if a <> 0 || b <> 0 then
          paulis :=
            Mat.kron (Gates.Oneq.pauli_of_index a) (Gates.Oneq.pauli_of_index b)
            :: !paulis
      done
    done;
    make
      (Printf.sprintf "depol2(%.4g)" p)
      (Mat.scale_real (Float.sqrt (1.0 -. p)) (Mat.identity 4)
      :: List.map (fun m -> Mat.scale_real (Float.sqrt (p /. 15.0)) m) !paulis)
  end

(* T1 relaxation for duration t: gamma = 1 - exp(-t/T1). *)
let amplitude_damping gamma =
  assert (gamma >= 0.0 && gamma <= 1.0);
  let z = { Complex.re = 0.0; im = 0.0 } in
  let r x = { Complex.re = x; im = 0.0 } in
  let k0 = Mat.of_rows [ [ r 1.0; z ]; [ z; r (Float.sqrt (1.0 -. gamma)) ] ] in
  let k1 = Mat.of_rows [ [ z; r (Float.sqrt gamma) ]; [ z; z ] ] in
  make (Printf.sprintf "amp_damp(%.4g)" gamma) [ k0; k1 ]

(* Pure dephasing for duration t: lambda = 1 - exp(-t/Tphi) with
   1/Tphi = 1/T2 - 1/(2 T1). *)
let phase_damping lambda =
  assert (lambda >= 0.0 && lambda <= 1.0);
  let z = { Complex.re = 0.0; im = 0.0 } in
  let r x = { Complex.re = x; im = 0.0 } in
  let k0 = Mat.of_rows [ [ r 1.0; z ]; [ z; r (Float.sqrt (1.0 -. lambda)) ] ] in
  let k1 = Mat.of_rows [ [ z; z ]; [ z; r (Float.sqrt lambda) ] ] in
  make (Printf.sprintf "phase_damp(%.4g)" lambda) [ k0; k1 ]

let damping_params ~t1 ~t2 ~duration =
  let gamma = 1.0 -. Float.exp (-.duration /. t1) in
  (* pure dephasing rate; clamp in case T2 > 2 T1 in synthetic data *)
  let inv_tphi = Float.max 0.0 ((1.0 /. t2) -. (1.0 /. (2.0 *. t1))) in
  let lambda = 1.0 -. Float.exp (-.duration *. inv_tphi) in
  (gamma, lambda)

(* Readout error as a classical bit-flip confusion on probabilities. *)
let apply_readout_error ~error_rates probs =
  let n_qubits =
    let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
    log2 0 (Array.length probs)
  in
  assert (Array.length error_rates = n_qubits);
  let cur = ref (Array.copy probs) in
  for q = 0 to n_qubits - 1 do
    let p = error_rates.(q) in
    if p > 0.0 then begin
      let next = Array.make (Array.length probs) 0.0 in
      Array.iteri
        (fun idx pr ->
          let flipped = idx lxor (1 lsl q) in
          next.(idx) <- next.(idx) +. (pr *. (1.0 -. p));
          next.(flipped) <- next.(flipped) +. (pr *. p))
        !cur;
      cur := next
    end
  done;
  !cur
