(* State-vector simulator core.

   Amplitudes live in two unboxed float arrays (re / im); qubit [q]
   corresponds to bit [q] of the amplitude index (qubit 0 is the least
   significant bit).

   Gate application picks its kernel from the gate width alone, with no
   option: a loop over amplitude pairs for one qubit, a loop over four
   amplitudes for two, and for wider matrices a gather/scatter over the
   2^k amplitudes of each block that sums only the matrix's nonzero
   entries.  A matrix applied many times is prepared once instead
   ([prepare]), into the form its kernel reads.  That is how the
   vectorized density simulator applies its channel superoperators,
   where "qubits" include bra indices and the matrix is not unitary.
   A real 4x4 that is zero off its diagonal and anti-diagonal (the
   one-qubit depolarizing, amplitude- and phase-damping superoperators,
   which never mix populations with coherences) keeps its eight real
   entries for a kernel of its own on (q, q+n); any other matrix (the
   16x16 two-qubit depolarizing superoperator, a complex or otherwise
   shaped 4x4) keeps its nonzero entries for the gather/scatter loop.

   All kernels return the bits of one reference order: output row r is
   0.0 +. t_0 +. ... +. t_{2^k-1}, left to right, with t_c the product
   of entry (r, c) and amplitude c.  Skipping a zero entry leaves that
   sum unchanged as long as the amplitudes are finite: the product is
   then a signed zero, and adding a signed zero to an accumulator that
   started at +0.0 (so is never -0.0) changes nothing.  The real kernel
   also drops each entry's imaginary part, a signed zero: t_c's parts
   m_re a_re - m_im a_im and m_re a_im + m_im a_re then differ from
   m_re a_re and m_re a_im at most in the sign of a zero, which the
   same accumulator cannot see.  An infinite or nan amplitude would
   make 0 * a a nan, so this holds for finite states, the only ones a
   simulation makes. *)

open Linalg

type t = { n_qubits : int; re : float array; im : float array }

let max_qubits = 26 (* 2^26 amplitudes * 16 B = 1 GiB; guard rail *)

let create n_qubits =
  if n_qubits < 1 || n_qubits > max_qubits then
    invalid_arg (Printf.sprintf "State.create: n_qubits %d out of range" n_qubits);
  let dim = 1 lsl n_qubits in
  let s = { n_qubits; re = Array.make dim 0.0; im = Array.make dim 0.0 } in
  s.re.(0) <- 1.0;
  s

let n_qubits t = t.n_qubits
let dim t = 1 lsl t.n_qubits

let copy t = { t with re = Array.copy t.re; im = Array.copy t.im }

let amplitude t k = { Complex.re = t.re.(k); im = t.im.(k) }

let set_amplitude t k (z : Complex.t) =
  t.re.(k) <- z.re;
  t.im.(k) <- z.im

let of_basis n_qubits k =
  let s = create n_qubits in
  s.re.(0) <- 0.0;
  s.re.(k) <- 1.0;
  s

let norm2 t =
  let acc = ref 0.0 in
  for k = 0 to dim t - 1 do
    acc := !acc +. (t.re.(k) *. t.re.(k)) +. (t.im.(k) *. t.im.(k))
  done;
  !acc

let normalize t =
  let n = Float.sqrt (norm2 t) in
  if n > 1e-300 then begin
    let inv = 1.0 /. n in
    for k = 0 to dim t - 1 do
      t.re.(k) <- t.re.(k) *. inv;
      t.im.(k) <- t.im.(k) *. inv
    done
  end

let probability t k = (t.re.(k) *. t.re.(k)) +. (t.im.(k) *. t.im.(k))

let probabilities t = Array.init (dim t) (probability t)

let inner a b =
  assert (a.n_qubits = b.n_qubits);
  let re = ref 0.0 and im = ref 0.0 in
  for k = 0 to dim a - 1 do
    re := !re +. ((a.re.(k) *. b.re.(k)) +. (a.im.(k) *. b.im.(k)));
    im := !im +. ((a.re.(k) *. b.im.(k)) -. (a.im.(k) *. b.re.(k)))
  done;
  { Complex.re = !re; im = !im }

let fidelity_pure a b = Complex.norm2 (inner a b)

(* Gate application.  [qubits] orders the matrix index with qubits.(0)
   as the MOST significant bit: a 2-qubit gate on [a; b] sees basis
   |x_a x_b> with index 2*x_a + x_b, matching the 4x4 conventions of
   the gates library.  Every kernel sums in the header's order, with
   t_c split as re = m_re a_re - m_im a_im and im = m_re a_im + m_im a_re. *)

(* Refuse what would corrupt the state or index outside it: a qubit out
   of range or listed twice, or a matrix that is not 2^k x 2^k.  The
   kernels read and write without bounds checks, so they run only on
   arguments that passed here.  The qubits are checked first: once they
   are distinct and in range, k <= n_qubits and 2^k cannot overflow. *)
let check_args fn t ~rows ~cols qubits =
  let k = Array.length qubits in
  for i = 0 to k - 1 do
    let q = qubits.(i) in
    if q < 0 || q >= t.n_qubits then
      invalid_arg (Printf.sprintf "%s: qubit %d out of range for %d qubits" fn q t.n_qubits);
    for j = 0 to i - 1 do
      if qubits.(j) = q then invalid_arg (Printf.sprintf "%s: qubit %d listed twice" fn q)
    done
  done;
  let dim_gate = 1 lsl k in
  if rows <> dim_gate || cols <> dim_gate then
    invalid_arg
      (Printf.sprintf "%s: %d qubit(s) take a %dx%d matrix, not %dx%d" fn k dim_gate dim_gate
         rows cols)

(* k = 1: the amplitude pairs (i, i + 2^q), i with bit q clear, in
   blocks of 2^(q+1). *)
let apply_1q t md q =
  let re = t.re and im = t.im in
  let m00r = Array.unsafe_get md 0 and m00i = Array.unsafe_get md 1 in
  let m01r = Array.unsafe_get md 2 and m01i = Array.unsafe_get md 3 in
  let m10r = Array.unsafe_get md 4 and m10i = Array.unsafe_get md 5 in
  let m11r = Array.unsafe_get md 6 and m11i = Array.unsafe_get md 7 in
  let bit = 1 lsl q in
  for block = 0 to (1 lsl (t.n_qubits - q - 1)) - 1 do
    let first = block lsl (q + 1) in
    for i0 = first to first + bit - 1 do
      let i1 = i0 + bit in
      let a0r = Array.unsafe_get re i0 and a0i = Array.unsafe_get im i0 in
      let a1r = Array.unsafe_get re i1 and a1i = Array.unsafe_get im i1 in
      Array.unsafe_set re i0
        (0.0 +. ((m00r *. a0r) -. (m00i *. a0i)) +. ((m01r *. a1r) -. (m01i *. a1i)));
      Array.unsafe_set im i0
        (0.0 +. ((m00r *. a0i) +. (m00i *. a0r)) +. ((m01r *. a1i) +. (m01i *. a1r)));
      Array.unsafe_set re i1
        (0.0 +. ((m10r *. a0r) -. (m10i *. a0i)) +. ((m11r *. a1r) -. (m11i *. a1i)));
      Array.unsafe_set im i1
        (0.0 +. ((m10r *. a0i) +. (m10i *. a0r)) +. ((m11r *. a1i) +. (m11i *. a1r)))
    done
  done

(* k = 2 on [a; b]: four amplitudes per setting of the other bits, whose
   index [rest] widens to the block's base by inserting a zero bit at
   the lower of a and b, then at the higher. *)
let apply_2q t md a b =
  let re = t.re and im = t.im in
  let low_mask = (1 lsl Int.min a b) - 1 and high_mask = (1 lsl Int.max a b) - 1 in
  let offsets = [| 0; 1 lsl b; 1 lsl a; (1 lsl a) lor (1 lsl b) |] in
  for rest = 0 to (1 lsl (t.n_qubits - 2)) - 1 do
    let x = ((rest land lnot low_mask) lsl 1) lor (rest land low_mask) in
    let base = ((x land lnot high_mask) lsl 1) lor (x land high_mask) in
    let i1 = base lor Array.unsafe_get offsets 1 in
    let i2 = base lor Array.unsafe_get offsets 2 in
    let i3 = base lor Array.unsafe_get offsets 3 in
    let a0r = Array.unsafe_get re base and a0i = Array.unsafe_get im base in
    let a1r = Array.unsafe_get re i1 and a1i = Array.unsafe_get im i1 in
    let a2r = Array.unsafe_get re i2 and a2i = Array.unsafe_get im i2 in
    let a3r = Array.unsafe_get re i3 and a3i = Array.unsafe_get im i3 in
    for r = 0 to 3 do
      let m = 8 * r in
      let m0r = Array.unsafe_get md m and m0i = Array.unsafe_get md (m + 1) in
      let m1r = Array.unsafe_get md (m + 2) and m1i = Array.unsafe_get md (m + 3) in
      let m2r = Array.unsafe_get md (m + 4) and m2i = Array.unsafe_get md (m + 5) in
      let m3r = Array.unsafe_get md (m + 6) and m3i = Array.unsafe_get md (m + 7) in
      let idx = base lor Array.unsafe_get offsets r in
      Array.unsafe_set re idx
        (0.0
        +. ((m0r *. a0r) -. (m0i *. a0i))
        +. ((m1r *. a1r) -. (m1i *. a1i))
        +. ((m2r *. a2r) -. (m2i *. a2i))
        +. ((m3r *. a3r) -. (m3i *. a3i)));
      Array.unsafe_set im idx
        (0.0
        +. ((m0r *. a0i) +. (m0i *. a0r))
        +. ((m1r *. a1i) +. (m1i *. a1r))
        +. ((m2r *. a2i) +. (m2i *. a2r))
        +. ((m3r *. a3i) +. (m3i *. a3r)))
    done
  done

(* A matrix's nonzero entries, row by row in column order: what the
   gather/scatter kernel reads.  [row_start.(r)] indexes row r's first
   entry in [columns] (its column) and in [entries] (its re, im
   pair). *)
type nonzeros = {
  rows : int;
  cols : int;
  row_start : int array;
  columns : int array;
  entries : float array;
}

let nonzeros matrix =
  let rows = Mat.rows matrix and cols = Mat.cols matrix in
  let md = Mat.unsafe_data matrix in
  let nonzero r c = md.(2 * ((r * cols) + c)) <> 0.0 || md.((2 * ((r * cols) + c)) + 1) <> 0.0 in
  let row_start = Array.make (rows + 1) 0 in
  for r = 0 to rows - 1 do
    let count = ref 0 in
    for c = 0 to cols - 1 do
      if nonzero r c then incr count
    done;
    row_start.(r + 1) <- row_start.(r) + !count
  done;
  let columns = Array.make row_start.(rows) 0 and entries = Array.make (2 * row_start.(rows)) 0.0 in
  let e = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if nonzero r c then begin
        columns.(!e) <- c;
        entries.(2 * !e) <- md.(2 * ((r * cols) + c));
        entries.((2 * !e) + 1) <- md.((2 * ((r * cols) + c)) + 1);
        incr e
      end
    done
  done;
  { rows; cols; row_start; columns; entries }

(* Any k (the 16x16 two-qubit channel superoperators take it, with
   k = 4): gather the 2^k amplitudes of each block, then sum each row
   over its nonzero entries only (the header says why the skipped zeros
   cannot change a bit). *)
let apply_nonzeros t nz qubits =
  let k = Array.length qubits in
  let dim_gate = 1 lsl k in
  let { row_start; columns; entries; _ } = nz in
  (* offset within a block of each gate-basis setting g: matrix bit j
     (from the least significant) is qubit qubits.(k-1-j) *)
  let offsets = Array.make dim_gate 0 in
  for g = 0 to dim_gate - 1 do
    for j = 0 to k - 1 do
      if (g lsr j) land 1 = 1 then
        offsets.(g) <- offsets.(g) lor (1 lsl qubits.(k - 1 - j))
    done
  done;
  let sorted = Array.copy qubits in
  Array.sort Int.compare sorted;
  let gather_re = Array.make dim_gate 0.0 and gather_im = Array.make dim_gate 0.0 in
  for rest = 0 to (1 lsl (t.n_qubits - k)) - 1 do
    (* [rest] with a zero bit inserted at each gate qubit, lowest first *)
    let base = ref rest in
    for s = 0 to k - 1 do
      let low_mask = (1 lsl Array.unsafe_get sorted s) - 1 in
      base := ((!base land lnot low_mask) lsl 1) lor (!base land low_mask)
    done;
    let base = !base in
    for g = 0 to dim_gate - 1 do
      let idx = base lor Array.unsafe_get offsets g in
      Array.unsafe_set gather_re g (Array.unsafe_get t.re idx);
      Array.unsafe_set gather_im g (Array.unsafe_get t.im idx)
    done;
    for r = 0 to dim_gate - 1 do
      let acc_re = ref 0.0 and acc_im = ref 0.0 in
      for e = Array.unsafe_get row_start r to Array.unsafe_get row_start (r + 1) - 1 do
        let c = Array.unsafe_get columns e in
        let mr = Array.unsafe_get entries (2 * e) and mi = Array.unsafe_get entries ((2 * e) + 1) in
        let gr = Array.unsafe_get gather_re c and gi = Array.unsafe_get gather_im c in
        acc_re := !acc_re +. ((mr *. gr) -. (mi *. gi));
        acc_im := !acc_im +. ((mr *. gi) +. (mi *. gr))
      done;
      let idx = base lor Array.unsafe_get offsets r in
      Array.unsafe_set t.re idx !acc_re;
      Array.unsafe_set t.im idx !acc_im
    done
  done

(* A real 4x4 that is zero off its diagonal and anti-diagonal, on
   [a; b] (the one-qubit channel superoperators, on (q, q+n)).  [m]
   holds each row's two entries in column order: (0,0) (0,3), (1,1)
   (1,2), (2,1) (2,2), (3,0) (3,3).  Each output sums its two terms
   from [0.0 +.], 16 real products per four amplitudes; the header says
   why dropping the zero entries and the zero imaginary parts keeps
   every bit. *)
let apply_real_x t m a b =
  let re = t.re and im = t.im in
  let m00 = m.(0) and m03 = m.(1) and m11 = m.(2) and m12 = m.(3) in
  let m21 = m.(4) and m22 = m.(5) and m30 = m.(6) and m33 = m.(7) in
  let low_mask = (1 lsl Int.min a b) - 1 and high_mask = (1 lsl Int.max a b) - 1 in
  let bit_b = 1 lsl b and bit_a = 1 lsl a in
  for rest = 0 to (1 lsl (t.n_qubits - 2)) - 1 do
    let x = ((rest land lnot low_mask) lsl 1) lor (rest land low_mask) in
    let i0 = ((x land lnot high_mask) lsl 1) lor (x land high_mask) in
    let i1 = i0 lor bit_b and i2 = i0 lor bit_a in
    let i3 = i1 lor bit_a in
    let a0r = Array.unsafe_get re i0 and a0i = Array.unsafe_get im i0 in
    let a1r = Array.unsafe_get re i1 and a1i = Array.unsafe_get im i1 in
    let a2r = Array.unsafe_get re i2 and a2i = Array.unsafe_get im i2 in
    let a3r = Array.unsafe_get re i3 and a3i = Array.unsafe_get im i3 in
    Array.unsafe_set re i0 (0.0 +. (m00 *. a0r) +. (m03 *. a3r));
    Array.unsafe_set im i0 (0.0 +. (m00 *. a0i) +. (m03 *. a3i));
    Array.unsafe_set re i1 (0.0 +. (m11 *. a1r) +. (m12 *. a2r));
    Array.unsafe_set im i1 (0.0 +. (m11 *. a1i) +. (m12 *. a2i));
    Array.unsafe_set re i2 (0.0 +. (m21 *. a1r) +. (m22 *. a2r));
    Array.unsafe_set im i2 (0.0 +. (m21 *. a1i) +. (m22 *. a2i));
    Array.unsafe_set re i3 (0.0 +. (m30 *. a0r) +. (m33 *. a3r));
    Array.unsafe_set im i3 (0.0 +. (m30 *. a0i) +. (m33 *. a3i))
  done

(* The kernel follows from the gate width alone, as in [Mat.mul_into]. *)
let apply_matrix t matrix qubits =
  check_args "State.apply_matrix" t ~rows:(Mat.rows matrix) ~cols:(Mat.cols matrix) qubits;
  match qubits with
  | [| q |] -> apply_1q t (Mat.unsafe_data matrix) q
  | [| a; b |] -> apply_2q t (Mat.unsafe_data matrix) a b
  | _ -> apply_nonzeros t (nonzeros matrix) qubits

(* A matrix applied many times, prepared once into what its kernel
   reads: the real entries of an X-shaped real 4x4, or any other
   matrix's nonzero entries. *)
type prepared = Real_x of float array | Nonzeros of nonzeros

let prepare matrix =
  let md = Mat.unsafe_data matrix in
  let real_x =
    Mat.rows matrix = 4
    && Mat.cols matrix = 4
    && Seq.for_all
         (fun e ->
           let r = e / 4 and c = e mod 4 in
           md.((2 * e) + 1) = 0.0 && (c = r || c = 3 - r || md.(2 * e) = 0.0))
         (Seq.init 16 Fun.id)
  in
  if real_x then Real_x [| md.(0); md.(6); md.(10); md.(12); md.(18); md.(20); md.(24); md.(30) |]
  else Nonzeros (nonzeros matrix)

let apply_prepared t p qubits =
  let rows, cols = match p with Real_x _ -> (4, 4) | Nonzeros nz -> (nz.rows, nz.cols) in
  check_args "State.apply_prepared" t ~rows ~cols qubits;
  match p with
  | Real_x m -> apply_real_x t m qubits.(0) qubits.(1)
  | Nonzeros nz -> apply_nonzeros t nz qubits

let apply_instr t instr =
  apply_matrix t (Gates.Gate.matrix (Qcir.Instr.gate instr)) (Qcir.Instr.qubits instr)

let run_circuit circuit =
  let s = create (Qcir.Circuit.n_qubits circuit) in
  Qcir.Circuit.iter (apply_instr s) circuit;
  s

let run_circuit_on s circuit =
  assert (s.n_qubits = Qcir.Circuit.n_qubits circuit);
  Qcir.Circuit.iter (apply_instr s) circuit
