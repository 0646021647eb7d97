(* Tests for the linear-algebra substrate: complex helpers, matrices,
   QR, eigenvalues and the deterministic RNG, plus the matrix
   properties against schoolbook references. *)

open Linalg

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rng () = Rng.create 77

let random_mat rng n =
  Mat.init n n (fun _ _ -> { Complex.re = Rng.gaussian rng; im = Rng.gaussian rng })

(* ---------- Cplx ---------- *)

let test_cplx_arith () =
  let a = Cplx.make 1.0 2.0 and b = Cplx.make (-3.0) 0.5 in
  check_bool "add" true (Cplx.equal (Cplx.add a b) (Cplx.make (-2.0) 2.5));
  check_bool "mul" true
    (Cplx.equal (Cplx.mul a b) (Cplx.make ((1.0 *. -3.0) -. (2.0 *. 0.5)) ((1.0 *. 0.5) +. (2.0 *. -3.0))));
  check_bool "conj" true (Cplx.equal (Cplx.conj a) (Cplx.make 1.0 (-2.0)));
  check_float "norm" (Float.sqrt 5.0) (Cplx.norm a)

let test_cplx_cis () =
  let z = Cplx.cis (Float.pi /. 3.0) in
  check_float "re" (Float.cos (Float.pi /. 3.0)) z.re;
  check_float "im" (Float.sin (Float.pi /. 3.0)) z.im;
  check_float "unit modulus" 1.0 (Cplx.norm z)

let test_cplx_infix () =
  let open Cplx.Infix in
  let a = Cplx.make 2.0 1.0 in
  check_bool "a - a = 0" true (Cplx.equal (a - a) Cplx.zero);
  check_bool "a * 1 = a" true (Cplx.equal (a * Cplx.one) a);
  check_bool "a / a = 1" true (Cplx.equal ~eps:1e-12 (a / a) Cplx.one)

let test_cplx_polar () =
  let z = Cplx.polar 2.0 0.7 in
  check_float "modulus" 2.0 (Cplx.norm z);
  check_float "arg" 0.7 (Cplx.arg z)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 20 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let child = Rng.child a in
  let x = Rng.float child in
  check_bool "in range" true (x >= 0.0 && x < 1.0)

let test_rng_split_reproducible () =
  (* split is a pure function of (parent state, index): same inputs give
     the same substream, and the parent stream is not advanced *)
  let a = Rng.create 5 and b = Rng.create 5 in
  let s1 = Rng.split a 3 and s2 = Rng.split b 3 in
  for _ = 1 to 10 do
    check_float "same substream" (Rng.float s1) (Rng.float s2)
  done;
  let _ = Rng.split a 7 in
  check_float "parent unchanged" (Rng.float a) (Rng.float b)

let test_rng_split_distinct () =
  (* pairwise distinct substreams across task indices *)
  let parent = Rng.create 5 in
  let firsts = List.init 64 (fun i -> Rng.float (Rng.split parent i)) in
  let sorted = List.sort_uniq compare firsts in
  check_bool "pairwise distinct" true (List.length sorted = 64)

let test_rng_uniform_bounds () =
  let r = rng () in
  for _ = 1 to 200 do
    let x = Rng.uniform r 2.0 3.0 in
    check_bool "bounds" true (x >= 2.0 && x < 3.0)
  done

let test_rng_int_bounds () =
  let r = rng () in
  for _ = 1 to 200 do
    let x = Rng.int r 7 in
    check_bool "bounds" true (x >= 0 && x < 7)
  done

let test_rng_gaussian_moments () =
  let r = rng () in
  let n = 20000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian r in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  check_bool "mean ~ 0" true (Float.abs mean < 0.05);
  check_bool "var ~ 1" true (Float.abs (var -. 1.0) < 0.05)

let test_rng_permutation () =
  let r = rng () in
  let p = Rng.permutation r 10 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 10 Fun.id) sorted

(* ---------- Mat basics ---------- *)

let test_mat_identity () =
  let i4 = Mat.identity 4 in
  check_bool "unitary" true (Mat.is_unitary i4);
  check_float "trace" 4.0 (Mat.trace i4).re

let test_mat_get_set () =
  let m = Mat.create 3 2 in
  Mat.set m 2 1 (Cplx.make 1.5 (-0.5));
  check_bool "roundtrip" true (Cplx.equal (Mat.get m 2 1) (Cplx.make 1.5 (-0.5)));
  check_bool "other zero" true (Cplx.equal (Mat.get m 0 0) Cplx.zero)

let test_mat_mul_identity () =
  let r = rng () in
  let a = random_mat r 4 in
  check_bool "a * I = a" true (Mat.equal (Mat.mul a (Mat.identity 4)) a);
  check_bool "I * a = a" true (Mat.equal (Mat.mul (Mat.identity 4) a) a)

let test_mat_mul_associative () =
  let r = rng () in
  let a = random_mat r 3 and b = random_mat r 3 and c = random_mat r 3 in
  check_bool "assoc" true
    (Mat.equal ~eps:1e-8 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)))

let test_mat_dagger_product () =
  let r = rng () in
  let a = random_mat r 3 and b = random_mat r 3 in
  check_bool "(ab)^dag = b^dag a^dag" true
    (Mat.equal ~eps:1e-9 (Mat.dagger (Mat.mul a b)) (Mat.mul (Mat.dagger b) (Mat.dagger a)))

let test_mat_trace_cyclic () =
  let r = rng () in
  let a = random_mat r 4 and b = random_mat r 4 in
  let t1 = Mat.trace (Mat.mul a b) and t2 = Mat.trace (Mat.mul b a) in
  check_bool "tr(ab) = tr(ba)" true (Cplx.equal ~eps:1e-9 t1 t2)

let test_mat_hs_inner_vs_product () =
  let r = rng () in
  let a = random_mat r 4 and b = random_mat r 4 in
  let direct = Mat.hs_inner a b in
  let via_product = Mat.trace (Mat.mul (Mat.dagger a) b) in
  check_bool "hs_inner = tr(a^dag b)" true (Cplx.equal ~eps:1e-9 direct via_product)

let test_mat_kron_mixed_product () =
  let r = rng () in
  let a = random_mat r 2 and b = random_mat r 2 in
  let c = random_mat r 2 and d = random_mat r 2 in
  (* (a (x) b)(c (x) d) = (ac) (x) (bd) *)
  let lhs = Mat.mul (Mat.kron a b) (Mat.kron c d) in
  let rhs = Mat.kron (Mat.mul a c) (Mat.mul b d) in
  check_bool "mixed product" true (Mat.equal ~eps:1e-8 lhs rhs)

let test_mat_kron_dims () =
  let a = Mat.create 2 3 and b = Mat.create 4 5 in
  let k = Mat.kron a b in
  check_int "rows" 8 (Mat.rows k);
  check_int "cols" 15 (Mat.cols k)

let test_mat_scale () =
  let r = rng () in
  let a = random_mat r 3 in
  let z = Cplx.make 0.0 1.0 in
  let s = Mat.scale z a in
  (* i * i * a = -a *)
  check_bool "i^2 a = -a" true (Mat.equal ~eps:1e-10 (Mat.scale z s) (Mat.neg a))

let test_mat_det_identity () =
  check_bool "det I = 1" true (Cplx.equal ~eps:1e-10 (Mat.det (Mat.identity 5)) Cplx.one)

let test_mat_det_multiplicative () =
  let r = rng () in
  let a = random_mat r 3 and b = random_mat r 3 in
  let lhs = Mat.det (Mat.mul a b) in
  let rhs = Cplx.mul (Mat.det a) (Mat.det b) in
  check_bool "det(ab) = det a det b" true
    (Cplx.norm (Cplx.sub lhs rhs) < 1e-6 *. Float.max 1.0 (Cplx.norm rhs))

let test_mat_solve () =
  let r = rng () in
  let a = random_mat r 4 in
  let x = random_mat r 4 in
  let b = Mat.mul a x in
  let solved = Mat.solve a b in
  check_bool "a x = b" true (Mat.equal ~eps:1e-7 solved x)

let test_mat_inverse () =
  let r = rng () in
  let a = random_mat r 4 in
  let inv = Mat.inverse a in
  check_bool "a a^-1 = I" true (Mat.equal ~eps:1e-7 (Mat.mul a inv) (Mat.identity 4))

let test_mat_solve_singular () =
  let singular = Mat.zero 2 2 in
  Alcotest.check_raises "singular raises" (Invalid_argument "Mat.solve: singular")
    (fun () -> ignore (Mat.solve singular (Mat.identity 2)))

let test_mat_equal_up_to_phase () =
  let r = rng () in
  let u = Qr.haar_unitary r 4 in
  let phased = Mat.scale (Cplx.cis 1.234) u in
  check_bool "phase equal" true (Mat.equal_up_to_phase u phased);
  check_bool "not plain equal" false (Mat.equal ~eps:1e-6 u phased)

let test_mat_digest_stable () =
  let r = rng () in
  let a = random_mat r 3 in
  Alcotest.(check string) "same digest" (Digest.to_hex (Mat.digest a))
    (Digest.to_hex (Mat.digest (Mat.copy a)));
  let b = Mat.copy a in
  Mat.set b 0 0 (Cplx.add (Mat.get b 0 0) (Cplx.make 1e-3 0.0));
  check_bool "different digest" false
    (String.equal (Digest.to_hex (Mat.digest a)) (Digest.to_hex (Mat.digest b)))

(* The digest as first written: every rounded entry printed by
   [string_of_float].  Persisted curve keys hold these bytes, so
   [Mat.digest] must keep producing them. *)
let reference_digest t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%dx%d" (Mat.rows t) (Mat.cols t));
  Array.iter
    (fun v ->
      let r = Float.round (v *. 1e12) in
      let r = if r = 0.0 then 0.0 else r in
      Buffer.add_string buf (string_of_float r);
      Buffer.add_char buf ';')
    (Mat.unsafe_data t);
  Digest.string (Buffer.contents buf)

let test_mat_of_rows_validation () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () -> ignore (Mat.of_rows [ [ Cplx.one ]; [ Cplx.one; Cplx.zero ] ]))

(* ---------- QR / Haar ---------- *)

let test_qr_reconstruction () =
  let r = rng () in
  let a = random_mat r 4 in
  let q, rr = Qr.decompose a in
  check_bool "q unitary" true (Mat.is_unitary ~eps:1e-8 q);
  check_bool "a = qr" true (Mat.equal ~eps:1e-8 (Mat.mul q rr) a);
  (* r upper triangular *)
  let upper = ref true in
  for i = 1 to 3 do
    for j = 0 to i - 1 do
      if Cplx.norm (Mat.get rr i j) > 1e-8 then upper := false
    done
  done;
  check_bool "r upper" true !upper

let test_haar_unitary () =
  let r = rng () in
  for _ = 1 to 5 do
    check_bool "unitary" true (Mat.is_unitary ~eps:1e-8 (Qr.haar_unitary r 4))
  done

let test_haar_special_unitary () =
  let r = rng () in
  for _ = 1 to 5 do
    let u = Qr.haar_special_unitary r 4 in
    check_bool "unitary" true (Mat.is_unitary ~eps:1e-8 u);
    check_bool "det 1" true (Cplx.equal ~eps:1e-7 (Mat.det u) Cplx.one)
  done

(* ---------- Eigen ---------- *)

let test_eig2 () =
  (* [[2, 1]; [0, 3]] has eigenvalues 2, 3 *)
  let l1, l2 =
    Eigen.eig2 (Cplx.of_float 2.0) (Cplx.of_float 1.0) Cplx.zero (Cplx.of_float 3.0)
  in
  let vals = List.sort compare [ l1.re; l2.re ] in
  check_float "l1" 2.0 (List.nth vals 0);
  check_float "l2" 3.0 (List.nth vals 1)

let test_eigen_diagonal () =
  let d =
    Mat.init 4 4 (fun i j -> if i = j then Cplx.of_float (float_of_int (i + 1)) else Cplx.zero)
  in
  let eigs = Eigen.eigenvalues_sorted d in
  Array.iteri (fun k e -> check_float "eig" (float_of_int (k + 1)) e.Complex.re) eigs

let test_eigen_trace_sum () =
  let r = rng () in
  let a = random_mat r 4 in
  let eigs = Eigen.eigenvalues a in
  let sum = Array.fold_left Cplx.add Cplx.zero eigs in
  let tr = Mat.trace a in
  check_bool "sum eigs = trace" true (Cplx.norm (Cplx.sub sum tr) < 1e-6)

let test_eigen_unitary_on_circle () =
  let r = rng () in
  let u = Qr.haar_unitary r 4 in
  Array.iter
    (fun e -> check_bool "|eig| = 1" true (Float.abs (Cplx.norm e -. 1.0) < 1e-6))
    (Eigen.eigenvalues u)

let test_eigen_det_product () =
  let r = rng () in
  let a = random_mat r 4 in
  let eigs = Eigen.eigenvalues a in
  let prod = Array.fold_left Cplx.mul Cplx.one eigs in
  let d = Mat.det a in
  check_bool "prod eigs = det" true
    (Cplx.norm (Cplx.sub prod d) < 1e-5 *. Float.max 1.0 (Cplx.norm d))

let test_hessenberg_similarity () =
  let r = rng () in
  let a = random_mat r 4 in
  let h = Eigen.hessenberg a in
  check_bool "trace preserved" true
    (Cplx.norm (Cplx.sub (Mat.trace h) (Mat.trace a)) < 1e-9);
  (* below first subdiagonal is zero *)
  let ok = ref true in
  for i = 2 to 3 do
    for j = 0 to i - 2 do
      if Cplx.norm (Mat.get h i j) > 1e-9 then ok := false
    done
  done;
  check_bool "hessenberg form" true !ok

let test_eigenvector () =
  let r = rng () in
  let u = Qr.haar_unitary r 3 in
  let eigs = Eigen.eigenvalues u in
  let lambda = eigs.(0) in
  let v = Eigen.eigenvector u lambda in
  let uv = Mat.mul u v in
  let lv = Mat.scale lambda v in
  check_bool "u v = lambda v" true (Mat.equal ~eps:1e-5 uv lv)

(* ---------- properties: Mat against schoolbook references ---------- *)

module G = Proptest.Gen

let arb = Proptest.arbitrary

(* entries uniform on the unit square *)
let uniform_mat n rng =
  Mat.init n n (fun _ _ ->
      { Complex.re = Rng.uniform rng (-1.0) 1.0; im = Rng.uniform rng (-1.0) 1.0 })

let pm = Mat.to_string
let pm2 (a, b) = Printf.sprintf "A =\n%s\nB =\n%s" (pm a) (pm b)

(* a random square pair of matching dimension *)
let mat_pair = G.bind (G.int_range 2 5) (fun n -> G.pair (uniform_mat n) (uniform_mat n))

(* the definition of the product, on boxed entries: the same float
   operations in the same order as mul's generic loop (each term by
   Complex.mul, summed by Complex.add from zero), so any shape-specific
   kernel must match it bit for bit *)
let mul_reference a b =
  Mat.init (Mat.rows a) (Mat.cols b) (fun i j ->
      let acc = ref Complex.zero in
      for l = 0 to Mat.cols a - 1 do
        acc := Complex.add !acc (Complex.mul (Mat.get a i l) (Mat.get b l j))
      done;
      !acc)

let signed_zero rng = if Rng.bool rng then 0.0 else -0.0

(* A 4x4 pair with exact signed zeros: each entry component is +-0.0
   with probability 1/4.  In half the pairs, row i of a is zeros signed
   against column j of b so that every term of one part of entry (i, j)
   is -0.0 — the one case where the sum's start shows: from the first
   term it stays -0.0, from 0.0 (the generic loop) it is +0.0. *)
let signed_zero_pair rng =
  let component () =
    if Rng.int rng 4 = 0 then signed_zero rng else Rng.uniform rng (-1.0) 1.0
  in
  let mat4 () =
    Mat.init 4 4 (fun _ _ -> { Complex.re = component (); im = component () })
  in
  let a = mat4 () and b = mat4 () in
  if Rng.bool rng then begin
    let i = Rng.int rng 4 and j = Rng.int rng 4 and real_part = Rng.bool rng in
    let zero_signed x = Float.copy_sign 0.0 x in
    for k = 0 to 3 do
      let bk = Mat.get b k j in
      (* real: ar br = -0, ai bi = +0; imaginary: ar bi = ai br = -0 *)
      let re, im =
        if real_part then (zero_signed (-.bk.re), zero_signed bk.im)
        else (zero_signed (-.bk.im), zero_signed (-.bk.re))
      in
      Mat.set a i k { Complex.re; im }
    done
  end;
  (a, b)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let bit_identical a b =
  List.for_all2
    (List.for_all2 (fun (x : Complex.t) (y : Complex.t) ->
         same_bits x.re y.re && same_bits x.im y.im))
    (Mat.to_lists a) (Mat.to_lists b)

(* A Haar SU(4) with some entry parts replaced by values at the edges
   of the digest's number printing: signed zeros, +-1 (rounded to
   +-1e12, printed with an exponent), a value rounded to 12 digits, one
   rounded to zero, and nan. *)
let digest_edge_values =
  [| 0.0; -0.0; 1.0; -1.0; 3.7; 1e-13; -1e-13; 0.999999999999; -0.5; Float.nan |]

let su4_with_edges rng =
  let u = G.su4 rng in
  let part x =
    if Rng.int rng 3 = 0 then digest_edge_values.(Rng.int rng (Array.length digest_edge_values))
    else x
  in
  Mat.map (fun (z : Complex.t) -> { Complex.re = part z.re; im = part z.im }) u

let mat_properties =
  [
    Proptest.test "digest equals the string_of_float reference" ~count:100
      (arb ~print:pm su4_with_edges)
      (fun u -> String.equal (Mat.digest u) (reference_digest u));
    Proptest.test "mul matches the schoolbook product" ~count:25
      (arb ~print:pm2 mat_pair)
      (fun (a, b) -> Mat.equal ~eps:1e-10 (Mat.mul a b) (mul_reference a b));
    (* both go through the same kernel, so at n = 4 this compares the
       unrolled path with itself; the property below pins that path *)
    Proptest.test "mul_into agrees with mul" ~count:25
      (arb ~print:pm2 mat_pair)
      (fun (a, b) ->
        let dst = Mat.create (Mat.rows a) (Mat.cols b) in
        Mat.mul_into ~dst a b;
        Mat.equal ~eps:0.0 dst (Mat.mul a b));
    Proptest.test "4x4 mul and mul_into equal the reference bit for bit" ~count:200
      (arb ~print:pm2 signed_zero_pair)
      (fun (a, b) ->
        let reference = mul_reference a b in
        let dst = Mat.create 4 4 in
        Mat.mul_into ~dst a b;
        bit_identical (Mat.mul a b) reference && bit_identical dst reference);
    Proptest.test "hs_inner is trace(A^dag B)" ~count:25
      (arb ~print:pm2 mat_pair)
      (fun (a, b) ->
        Complex.norm
          (Complex.sub (Mat.hs_inner a b) (Mat.trace (Mat.mul (Mat.dagger a) b)))
        < 1e-10);
    Proptest.test "dagger is an involution" ~count:25
      (arb ~print:pm (uniform_mat 4))
      (fun a -> Mat.equal ~eps:0.0 (Mat.dagger (Mat.dagger a)) a);
    Proptest.test "kron mixed-product identity" ~count:20
      (arb
         ~print:(fun (a, b, (c, d)) ->
           Printf.sprintf "%s%s%s%s" (pm a) (pm b) (pm c) (pm d))
         (G.triple (uniform_mat 2) (uniform_mat 2) (G.pair (uniform_mat 2) (uniform_mat 2))))
      (fun (a, b, (c, d)) ->
        Mat.equal ~eps:1e-10
          (Mat.mul (Mat.kron a b) (Mat.kron c d))
          (Mat.kron (Mat.mul a c) (Mat.mul b d)));
    Proptest.test "det is multiplicative" ~count:20
      (arb ~print:pm2 (G.pair (uniform_mat 3) (uniform_mat 3)))
      (fun (a, b) ->
        Complex.norm
          (Complex.sub (Mat.det (Mat.mul a b)) (Complex.mul (Mat.det a) (Mat.det b)))
        < 1e-8);
    Proptest.test "solve round-trips" ~count:20
      (arb ~print:pm2 (G.pair (G.unitary 4) (uniform_mat 4)))
      (fun (u, b) -> Mat.equal ~eps:1e-8 (Mat.mul u (Mat.solve u b)) b);
    Proptest.test "haar samples are unitary, su4 has det 1" ~count:20
      (arb ~print:pm G.su4)
      (fun u ->
        Mat.is_unitary ~eps:1e-8 u
        && Complex.norm (Complex.sub (Mat.det u) Complex.one) < 1e-8);
    Proptest.test "product and kron of unitaries stay unitary" ~count:20
      (arb ~print:pm2 (G.pair (G.unitary 2) (G.unitary 2)))
      (fun (a, b) ->
        Mat.is_unitary ~eps:1e-7 (Mat.mul a b) && Mat.is_unitary ~eps:1e-7 (Mat.kron a b));
    Proptest.test "frobenius norm is unitarily invariant" ~count:20
      (arb ~print:pm2 (G.pair (G.unitary 3) (uniform_mat 3)))
      (fun (u, a) ->
        Float.abs (Mat.frobenius_norm (Mat.mul u a) -. Mat.frobenius_norm a) <= 1e-8);
    Proptest.test "unitary eigenvalues lie on the unit circle" ~count:15
      (arb ~print:pm (G.unitary 4))
      (fun u ->
        Array.for_all
          (fun e -> Float.abs (Complex.norm e -. 1.0) < 1e-5)
          (Eigen.eigenvalues u));
  ]

let () =
  Alcotest.run "linalg"
    [
      ( "cplx",
        [
          Alcotest.test_case "arithmetic" `Quick test_cplx_arith;
          Alcotest.test_case "cis" `Quick test_cplx_cis;
          Alcotest.test_case "infix" `Quick test_cplx_infix;
          Alcotest.test_case "polar" `Quick test_cplx_polar;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "indexed split reproducible" `Quick
            test_rng_split_reproducible;
          Alcotest.test_case "indexed split distinct" `Quick test_rng_split_distinct;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity" `Quick test_mat_identity;
          Alcotest.test_case "get/set" `Quick test_mat_get_set;
          Alcotest.test_case "mul identity" `Quick test_mat_mul_identity;
          Alcotest.test_case "mul associative" `Quick test_mat_mul_associative;
          Alcotest.test_case "dagger of product" `Quick test_mat_dagger_product;
          Alcotest.test_case "trace cyclic" `Quick test_mat_trace_cyclic;
          Alcotest.test_case "hs_inner" `Quick test_mat_hs_inner_vs_product;
          Alcotest.test_case "kron mixed product" `Quick test_mat_kron_mixed_product;
          Alcotest.test_case "kron dims" `Quick test_mat_kron_dims;
          Alcotest.test_case "scale" `Quick test_mat_scale;
          Alcotest.test_case "det identity" `Quick test_mat_det_identity;
          Alcotest.test_case "det multiplicative" `Quick test_mat_det_multiplicative;
          Alcotest.test_case "solve" `Quick test_mat_solve;
          Alcotest.test_case "inverse" `Quick test_mat_inverse;
          Alcotest.test_case "solve singular" `Quick test_mat_solve_singular;
          Alcotest.test_case "equal up to phase" `Quick test_mat_equal_up_to_phase;
          Alcotest.test_case "digest stable" `Quick test_mat_digest_stable;
          Alcotest.test_case "of_rows validation" `Quick test_mat_of_rows_validation;
        ]
        @ mat_properties );
      ( "qr",
        [
          Alcotest.test_case "reconstruction" `Quick test_qr_reconstruction;
          Alcotest.test_case "haar unitary" `Quick test_haar_unitary;
          Alcotest.test_case "haar special unitary" `Quick test_haar_special_unitary;
        ] );
      ( "eigen",
        [
          Alcotest.test_case "eig2" `Quick test_eig2;
          Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
          Alcotest.test_case "trace = sum" `Quick test_eigen_trace_sum;
          Alcotest.test_case "unitary circle" `Quick test_eigen_unitary_on_circle;
          Alcotest.test_case "det = product" `Quick test_eigen_det_product;
          Alcotest.test_case "hessenberg" `Quick test_hessenberg_similarity;
          Alcotest.test_case "eigenvector" `Quick test_eigenvector;
        ] );
    ]
