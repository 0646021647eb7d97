(* Dense complex matrices stored as interleaved [re; im] float arrays.

   OCaml unboxes [float array], so this layout keeps the NuOp/BFGS hot
   loops free of per-element allocation.  Entry (i, j) of an [r x c]
   matrix lives at float indices [2*(i*c + j)] (real) and
   [2*(i*c + j) + 1] (imaginary). *)

type t = { rows : int; cols : int; d : float array }

let rows t = t.rows
let cols t = t.cols

let create rows cols =
  assert (rows > 0 && cols > 0);
  { rows; cols; d = Array.make (2 * rows * cols) 0.0 }

let zero rows cols = create rows cols

let copy t = { t with d = Array.copy t.d }

let get t i j =
  assert (i >= 0 && i < t.rows && j >= 0 && j < t.cols);
  let k = 2 * ((i * t.cols) + j) in
  { Complex.re = t.d.(k); im = t.d.(k + 1) }

let set t i j (z : Complex.t) =
  assert (i >= 0 && i < t.rows && j >= 0 && j < t.cols);
  let k = 2 * ((i * t.cols) + j) in
  t.d.(k) <- z.re;
  t.d.(k + 1) <- z.im

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.d.(2 * ((i * n) + i)) <- 1.0
  done;
  m

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let of_rows rows_list =
  match rows_list with
  | [] -> invalid_arg "Mat.of_rows: empty"
  | first :: _ ->
    let rows = List.length rows_list and cols = List.length first in
    if cols = 0 then invalid_arg "Mat.of_rows: empty row";
    let m = create rows cols in
    List.iteri
      (fun i row ->
        if List.length row <> cols then invalid_arg "Mat.of_rows: ragged rows";
        List.iteri (fun j z -> set m i j z) row)
      rows_list;
    m

let to_lists t =
  List.init t.rows (fun i -> List.init t.cols (fun j -> get t i j))

let map f t = init t.rows t.cols (fun i j -> f (get t i j))

let add a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  let m = create a.rows a.cols in
  Array.iteri (fun k av -> m.d.(k) <- av +. b.d.(k)) a.d;
  m

let sub a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  let m = create a.rows a.cols in
  Array.iteri (fun k av -> m.d.(k) <- av -. b.d.(k)) a.d;
  m

let neg a =
  let m = create a.rows a.cols in
  Array.iteri (fun k av -> m.d.(k) <- -.av) a.d;
  m

let scale (z : Complex.t) a =
  let m = create a.rows a.cols in
  let n = a.rows * a.cols in
  for k = 0 to n - 1 do
    let re = a.d.(2 * k) and im = a.d.((2 * k) + 1) in
    m.d.(2 * k) <- (z.re *. re) -. (z.im *. im);
    m.d.((2 * k) + 1) <- (z.re *. im) +. (z.im *. re)
  done;
  m

let scale_real s a =
  let m = create a.rows a.cols in
  Array.iteri (fun k av -> m.d.(k) <- s *. av) a.d;
  m

(* The 4x4 product, unrolled: [b]'s 32 floats are loaded once and each
   entry is summed in the generic loop's exact order, starting from
   [0.0 +.] (which turns a -0.0 first term into +0.0, as the loop does),
   so results are bit-identical to the generic path.  All three arrays
   belong to 4x4 matrices and hold exactly 32 floats, which makes the
   unchecked accesses safe. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

let mul4_into d a b =
  let b00r = b.!(0) and b00i = b.!(1) and b01r = b.!(2) and b01i = b.!(3) in
  let b02r = b.!(4) and b02i = b.!(5) and b03r = b.!(6) and b03i = b.!(7) in
  let b10r = b.!(8) and b10i = b.!(9) and b11r = b.!(10) and b11i = b.!(11) in
  let b12r = b.!(12) and b12i = b.!(13) and b13r = b.!(14) and b13i = b.!(15) in
  let b20r = b.!(16) and b20i = b.!(17) and b21r = b.!(18) and b21i = b.!(19) in
  let b22r = b.!(20) and b22i = b.!(21) and b23r = b.!(22) and b23i = b.!(23) in
  let b30r = b.!(24) and b30i = b.!(25) and b31r = b.!(26) and b31i = b.!(27) in
  let b32r = b.!(28) and b32i = b.!(29) and b33r = b.!(30) and b33i = b.!(31) in
  for i = 0 to 3 do
    let r = 8 * i in
    let a0r = a.!(r) and a0i = a.!(r + 1) and a1r = a.!(r + 2) and a1i = a.!(r + 3) in
    let a2r = a.!(r + 4) and a2i = a.!(r + 5) and a3r = a.!(r + 6) and a3i = a.!(r + 7) in
    d.!(r) <-
      0.0
      +. ((a0r *. b00r) -. (a0i *. b00i))
      +. ((a1r *. b10r) -. (a1i *. b10i))
      +. ((a2r *. b20r) -. (a2i *. b20i))
      +. ((a3r *. b30r) -. (a3i *. b30i));
    d.!(r + 1) <-
      0.0
      +. ((a0r *. b00i) +. (a0i *. b00r))
      +. ((a1r *. b10i) +. (a1i *. b10r))
      +. ((a2r *. b20i) +. (a2i *. b20r))
      +. ((a3r *. b30i) +. (a3i *. b30r));
    d.!(r + 2) <-
      0.0
      +. ((a0r *. b01r) -. (a0i *. b01i))
      +. ((a1r *. b11r) -. (a1i *. b11i))
      +. ((a2r *. b21r) -. (a2i *. b21i))
      +. ((a3r *. b31r) -. (a3i *. b31i));
    d.!(r + 3) <-
      0.0
      +. ((a0r *. b01i) +. (a0i *. b01r))
      +. ((a1r *. b11i) +. (a1i *. b11r))
      +. ((a2r *. b21i) +. (a2i *. b21r))
      +. ((a3r *. b31i) +. (a3i *. b31r));
    d.!(r + 4) <-
      0.0
      +. ((a0r *. b02r) -. (a0i *. b02i))
      +. ((a1r *. b12r) -. (a1i *. b12i))
      +. ((a2r *. b22r) -. (a2i *. b22i))
      +. ((a3r *. b32r) -. (a3i *. b32i));
    d.!(r + 5) <-
      0.0
      +. ((a0r *. b02i) +. (a0i *. b02r))
      +. ((a1r *. b12i) +. (a1i *. b12r))
      +. ((a2r *. b22i) +. (a2i *. b22r))
      +. ((a3r *. b32i) +. (a3i *. b32r));
    d.!(r + 6) <-
      0.0
      +. ((a0r *. b03r) -. (a0i *. b03i))
      +. ((a1r *. b13r) -. (a1i *. b13i))
      +. ((a2r *. b23r) -. (a2i *. b23i))
      +. ((a3r *. b33r) -. (a3i *. b33i));
    d.!(r + 7) <-
      0.0
      +. ((a0r *. b03i) +. (a0i *. b03r))
      +. ((a1r *. b13i) +. (a1i *. b13r))
      +. ((a2r *. b23i) +. (a2i *. b23r))
      +. ((a3r *. b33i) +. (a3i *. b33r))
  done

(* The fSim pattern: entries (0,0), (1,1), (1,2), (2,1), (2,2) and
   (3,3) of a 4x4.  Every fSim, XY and CPHASE gate and every fixed
   two-qubit gate of the paper's instruction sets (SWAP included) is
   zero outside it. *)
let in_fsim_pattern i j = i = j || (i = 1 && j = 2) || (i = 2 && j = 1)

let has_fsim_pattern a =
  a.rows = 4
  && a.cols = 4
  &&
  let ok = ref true in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let k = 2 * ((4 * i) + j) in
      if (not (in_fsim_pattern i j)) && (a.d.(k) <> 0.0 || a.d.(k + 1) <> 0.0) then
        ok := false
    done
  done;
  !ok

(* The 4x4 product of an [a] zero outside the fSim pattern: each entry
   sums only its pattern terms, in mul4_into's order from [0.0 +.].
   Each term it skips is 0 times a finite entry of [b], a signed zero,
   and adding a signed zero to an accumulator that started at +0.0
   leaves it as it was (round-to-nearest addition yields -0.0 only from
   two -0.0 operands, so the accumulator is never -0.0): for finite [b]
   the result is mul4_into's, bit for bit. *)
let mul_fsim4_into d a b =
  let a00r = a.!(0) and a00i = a.!(1) in
  let a11r = a.!(10) and a11i = a.!(11) and a12r = a.!(12) and a12i = a.!(13) in
  let a21r = a.!(18) and a21i = a.!(19) and a22r = a.!(20) and a22i = a.!(21) in
  let a33r = a.!(30) and a33i = a.!(31) in
  for j = 0 to 3 do
    let c = 2 * j in
    let b0r = b.!(c) and b0i = b.!(c + 1) and b1r = b.!(c + 8) and b1i = b.!(c + 9) in
    let b2r = b.!(c + 16) and b2i = b.!(c + 17) in
    let b3r = b.!(c + 24) and b3i = b.!(c + 25) in
    d.!(c) <- 0.0 +. ((a00r *. b0r) -. (a00i *. b0i));
    d.!(c + 1) <- 0.0 +. ((a00r *. b0i) +. (a00i *. b0r));
    d.!(c + 8) <-
      0.0 +. ((a11r *. b1r) -. (a11i *. b1i)) +. ((a12r *. b2r) -. (a12i *. b2i));
    d.!(c + 9) <-
      0.0 +. ((a11r *. b1i) +. (a11i *. b1r)) +. ((a12r *. b2i) +. (a12i *. b2r));
    d.!(c + 16) <-
      0.0 +. ((a21r *. b1r) -. (a21i *. b1i)) +. ((a22r *. b2r) -. (a22i *. b2i));
    d.!(c + 17) <-
      0.0 +. ((a21r *. b1i) +. (a21i *. b1r)) +. ((a22r *. b2i) +. (a22i *. b2r));
    d.!(c + 24) <- 0.0 +. ((a33r *. b3r) -. (a33i *. b3i));
    d.!(c + 25) <- 0.0 +. ((a33r *. b3i) +. (a33i *. b3r))
  done

let mul_fsim_into ~dst a b =
  assert (a.rows = 4 && a.cols = 4 && b.rows = 4 && b.cols = 4);
  assert (dst.rows = 4 && dst.cols = 4);
  assert (dst.d != a.d && dst.d != b.d);
  mul_fsim4_into dst.d a.d b.d

(* c <- a * b, writing into a caller-provided buffer (no allocation).
   4x4 operands take the unrolled path; any other shape the loop. *)
let mul_into ~dst a b =
  assert (a.cols = b.rows);
  assert (dst.rows = a.rows && dst.cols = b.cols);
  assert (dst.d != a.d && dst.d != b.d);
  let n = a.rows and p = a.cols and q = b.cols in
  if n = 4 && p = 4 && q = 4 then mul4_into dst.d a.d b.d
  else
    for i = 0 to n - 1 do
      for j = 0 to q - 1 do
        let acc_re = ref 0.0 and acc_im = ref 0.0 in
        for k = 0 to p - 1 do
          let ka = 2 * ((i * p) + k) and kb = 2 * ((k * q) + j) in
          let ar = a.d.(ka) and ai = a.d.(ka + 1) in
          let br = b.d.(kb) and bi = b.d.(kb + 1) in
          acc_re := !acc_re +. ((ar *. br) -. (ai *. bi));
          acc_im := !acc_im +. ((ar *. bi) +. (ai *. br))
        done;
        let kd = 2 * ((i * q) + j) in
        dst.d.(kd) <- !acc_re;
        dst.d.(kd + 1) <- !acc_im
      done
    done

let mul a b =
  let dst = create a.rows b.cols in
  mul_into ~dst a b;
  dst

let transpose a = init a.cols a.rows (fun i j -> get a j i)

let conj a =
  let m = copy a in
  let n = a.rows * a.cols in
  for k = 0 to n - 1 do
    m.d.((2 * k) + 1) <- -.m.d.((2 * k) + 1)
  done;
  m

let dagger a = init a.cols a.rows (fun i j -> Complex.conj (get a j i))

let trace a =
  assert (a.rows = a.cols);
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to a.rows - 1 do
    let k = 2 * ((i * a.cols) + i) in
    re := !re +. a.d.(k);
    im := !im +. a.d.(k + 1)
  done;
  { Complex.re = !re; im = !im }

(* Tr(A^dag B) without forming the product: sum conj(a_ij) * b_ij. *)
let hs_inner a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  let re = ref 0.0 and im = ref 0.0 in
  let n = a.rows * a.cols in
  for k = 0 to n - 1 do
    let ar = a.d.(2 * k) and ai = a.d.((2 * k) + 1) in
    let br = b.d.(2 * k) and bi = b.d.((2 * k) + 1) in
    re := !re +. ((ar *. br) +. (ai *. bi));
    im := !im +. ((ar *. bi) -. (ai *. br))
  done;
  { Complex.re = !re; im = !im }

let kron a b =
  let rows = a.rows * b.rows and cols = a.cols * b.cols in
  let m = create rows cols in
  for ia = 0 to a.rows - 1 do
    for ja = 0 to a.cols - 1 do
      let ka = 2 * ((ia * a.cols) + ja) in
      let ar = a.d.(ka) and ai = a.d.(ka + 1) in
      if ar <> 0.0 || ai <> 0.0 then
        for ib = 0 to b.rows - 1 do
          for jb = 0 to b.cols - 1 do
            let kb = 2 * ((ib * b.cols) + jb) in
            let br = b.d.(kb) and bi = b.d.(kb + 1) in
            let i = (ia * b.rows) + ib and j = (ja * b.cols) + jb in
            let km = 2 * ((i * cols) + j) in
            m.d.(km) <- (ar *. br) -. (ai *. bi);
            m.d.(km + 1) <- (ar *. bi) +. (ai *. br)
          done
        done
    done
  done;
  m

let frobenius_norm a =
  let acc = ref 0.0 in
  Array.iter (fun v -> acc := !acc +. (v *. v)) a.d;
  Float.sqrt !acc

let max_abs_entry a =
  let acc = ref 0.0 in
  let n = a.rows * a.cols in
  for k = 0 to n - 1 do
    let re = a.d.(2 * k) and im = a.d.((2 * k) + 1) in
    let m = Float.sqrt ((re *. re) +. (im *. im)) in
    if m > !acc then acc := m
  done;
  !acc

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_entry (sub a b) <= eps

let is_unitary ?(eps = 1e-9) a =
  a.rows = a.cols && equal ~eps (mul (dagger a) a) (identity a.rows)

(* Global-phase-insensitive equality: |Tr(A^dag B)| = dim for unitaries
   that agree up to phase. *)
let equal_up_to_phase ?(eps = 1e-8) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ip = hs_inner a b in
  let na = frobenius_norm a and nb = frobenius_norm b in
  na > 0.0 && nb > 0.0
  && Float.abs ((Complex.norm ip /. (na *. nb)) -. 1.0) <= eps

(* LU decomposition with partial pivoting; returns (lu, perm, sign). *)
let lu_decompose a =
  assert (a.rows = a.cols);
  let n = a.rows in
  let lu = copy a in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1 in
  let idx i j = 2 * ((i * n) + j) in
  for col = 0 to n - 1 do
    (* pivot: largest modulus in this column at or below the diagonal *)
    let best = ref col and best_mag = ref 0.0 in
    for r = col to n - 1 do
      let k = idx r col in
      let mag = (lu.d.(k) *. lu.d.(k)) +. (lu.d.(k + 1) *. lu.d.(k + 1)) in
      if mag > !best_mag then begin
        best := r;
        best_mag := mag
      end
    done;
    if !best <> col then begin
      sign := - !sign;
      let tmp = perm.(col) in
      perm.(col) <- perm.(!best);
      perm.(!best) <- tmp;
      for j = 0 to n - 1 do
        let k1 = idx col j and k2 = idx !best j in
        let tr = lu.d.(k1) and ti = lu.d.(k1 + 1) in
        lu.d.(k1) <- lu.d.(k2);
        lu.d.(k1 + 1) <- lu.d.(k2 + 1);
        lu.d.(k2) <- tr;
        lu.d.(k2 + 1) <- ti
      done
    end;
    let kp = idx col col in
    let pr = lu.d.(kp) and pi = lu.d.(kp + 1) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    if pmag > 0.0 then
      for r = col + 1 to n - 1 do
        let kr = idx r col in
        (* factor = lu[r,col] / pivot *)
        let fr = ((lu.d.(kr) *. pr) +. (lu.d.(kr + 1) *. pi)) /. pmag in
        let fi = ((lu.d.(kr + 1) *. pr) -. (lu.d.(kr) *. pi)) /. pmag in
        lu.d.(kr) <- fr;
        lu.d.(kr + 1) <- fi;
        for j = col + 1 to n - 1 do
          let kcj = idx col j and krj = idx r j in
          let cr = lu.d.(kcj) and ci = lu.d.(kcj + 1) in
          lu.d.(krj) <- lu.d.(krj) -. ((fr *. cr) -. (fi *. ci));
          lu.d.(krj + 1) <- lu.d.(krj + 1) -. ((fr *. ci) +. (fi *. cr))
        done
      done
  done;
  (lu, perm, !sign)

let det a =
  let lu, _, sign = lu_decompose a in
  let n = a.rows in
  let acc = ref { Complex.re = float_of_int sign; im = 0.0 } in
  for i = 0 to n - 1 do
    acc := Complex.mul !acc (get lu i i)
  done;
  !acc

(* Solve A x = b for one right-hand side using the LU factors. *)
let solve a b =
  assert (a.rows = a.cols && b.rows = a.rows);
  let n = a.rows and nrhs = b.cols in
  let lu, perm, _ = lu_decompose a in
  let x = create n nrhs in
  for j = 0 to nrhs - 1 do
    (* forward substitution on permuted rhs *)
    let y = Array.make n Complex.zero in
    for i = 0 to n - 1 do
      let acc = ref (get b perm.(i) j) in
      for k = 0 to i - 1 do
        acc := Complex.sub !acc (Complex.mul (get lu i k) y.(k))
      done;
      y.(i) <- !acc
    done;
    (* back substitution *)
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for k = i + 1 to n - 1 do
        acc := Complex.sub !acc (Complex.mul (get lu i k) (get x k j))
      done;
      let diag = get lu i i in
      if Complex.norm diag < 1e-300 then invalid_arg "Mat.solve: singular";
      set x i j (Complex.div !acc diag)
    done
  done;
  x

let inverse a = solve a (identity a.rows)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  for i = 0 to t.rows - 1 do
    Fmt.pf ppf "[";
    for j = 0 to t.cols - 1 do
      if j > 0 then Fmt.pf ppf ", ";
      Cplx.pp ppf (get t i j)
    done;
    Fmt.pf ppf "]";
    if i < t.rows - 1 then Fmt.cut ppf ()
  done;
  Fmt.pf ppf "@]"

let to_string t = Fmt.str "%a" pp t

(* Decimal digits of [n >= 0], most significant first. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* Stable content key for memoization: round entries to 1e-12. *)
let digest t =
  let buf = Buffer.create (16 * t.rows * t.cols) in
  Buffer.add_string buf (string_of_int t.rows);
  Buffer.add_char buf 'x';
  Buffer.add_string buf (string_of_int t.cols);
  Array.iter
    (fun v ->
      let r = Float.round (v *. 1e12) in
      (* avoid distinguishing -0. from 0. *)
      let r = if r = 0.0 then 0.0 else r in
      (* the bytes of [string_of_float r] without formatting a float:
         below 1e12 the integer-valued [r] prints as its decimal digits
         and a "."; from 1e12 on it prints with an exponent, and nan and
         the infinities print as words, so those keep [string_of_float] *)
      if Float.abs r < 1e12 then begin
        if r < 0.0 then Buffer.add_char buf '-';
        add_digits buf (Float.to_int (Float.abs r));
        Buffer.add_char buf '.'
      end
      else Buffer.add_string buf (string_of_float r);
      Buffer.add_char buf ';')
    t.d;
  Digest.string (Buffer.contents buf)

(* Direct access to the interleaved storage for performance-critical
   consumers (template evaluation); treat as read/write raw buffer. *)
let unsafe_data t = t.d
