(* Tile-major packed storage: the whole n x n matrix lives in ONE flat
   Bigarray, tile (i, j) occupying the contiguous slice
   [((i*nt)+j) * nb*nb, ...) in row-major order. Every kernel then runs
   unit-stride over its operand tiles (Dongarra rule 1: flops are free,
   data movement is not — the strided Tile.t layout walks row-major views
   whose rows are nb doubles apart, evicting cache lines mid-tile).

   The sequential [potrf]/[getrf_nopiv] drivers below replay the exact
   program order of the Cholesky/LU task generators in lib/core, calling
   the Pblas kernels whose operation order matches the strided Blas/Lapack
   reference — so a packed factorization is bitwise identical (float64) to
   the Tile.t one, and the dataflow executor (any interleaving consistent
   with the DAG) is bitwise identical to both. *)

open Xsc_linalg
open Bigarray

module D = struct
  type t = { n : int; nb : int; nt : int; buf : Pblas.f64 }

  let tile_elems t = t.nb * t.nb
  let off t i j = ((i * t.nt) + j) * t.nb * t.nb

  let create ~n ~nb =
    if nb <= 0 then invalid_arg "Packed.create: nb must be positive";
    if n mod nb <> 0 then invalid_arg "Packed.create: n must be a multiple of nb";
    let nt = n / nb in
    let buf = Array1.create float64 c_layout (n * n) in
    Array1.fill buf 0.0;
    { n; nb; nt; buf }

  let copy t =
    let buf = Array1.create float64 c_layout (Array1.dim t.buf) in
    Array1.blit t.buf buf;
    { t with buf }

  let get t i j =
    let nb = t.nb in
    t.buf.{off t (i / nb) (j / nb) + ((i mod nb) * nb) + (j mod nb)}

  let set t i j x =
    let nb = t.nb in
    t.buf.{off t (i / nb) (j / nb) + ((i mod nb) * nb) + (j mod nb)} <- x

  let of_mat ~nb (a : Mat.t) =
    if a.Mat.rows <> a.Mat.cols then invalid_arg "Packed.of_mat: not square";
    let n = a.Mat.rows in
    let t = create ~n ~nb in
    let ad = a.Mat.data in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let base = off t bi bj in
        for r = 0 to nb - 1 do
          let src = (((bi * nb) + r) * n) + (bj * nb) in
          let dst = base + (r * nb) in
          for c = 0 to nb - 1 do
            t.buf.{dst + c} <- ad.(src + c)
          done
        done
      done
    done;
    t

  let to_mat t =
    let n = t.n and nb = t.nb in
    let a = Mat.create n n in
    let ad = a.Mat.data in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let base = off t bi bj in
        for r = 0 to nb - 1 do
          let dst = (((bi * nb) + r) * n) + (bj * nb) in
          let src = base + (r * nb) in
          for c = 0 to nb - 1 do
            ad.(dst + c) <- t.buf.{src + c}
          done
        done
      done
    done;
    a

  let of_tiled (tl : Tile.t) =
    if tl.Tile.mt <> tl.Tile.nt then invalid_arg "Packed.of_tiled: not square";
    let nb = tl.Tile.nb in
    let t = create ~n:tl.Tile.rows ~nb in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let m = Tile.tile tl bi bj in
        let base = off t bi bj in
        for e = 0 to (nb * nb) - 1 do
          t.buf.{base + e} <- m.Mat.data.(e)
        done
      done
    done;
    t

  let to_tiled t =
    let nb = t.nb in
    let tl = Tile.create ~rows:t.n ~cols:t.n ~nb in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let m = Tile.tile tl bi bj in
        let base = off t bi bj in
        for e = 0 to (nb * nb) - 1 do
          m.Mat.data.(e) <- t.buf.{base + e}
        done
      done
    done;
    tl

  (* Sequential packed Cholesky: identical program order to
     Cholesky.tasks (k: potrf; i-loop of trsm; i-loop of syrk with inner
     j-loop of gemm), so sequential packed == sequential strided bitwise,
     and any DAG-consistent parallel interleaving == both. *)
  let potrf t =
    let nb = t.nb in
    for k = 0 to t.nt - 1 do
      let okk = off t k k in
      Pblas.D.potrf t.buf okk ~nb;
      for i = k + 1 to t.nt - 1 do
        Pblas.D.trsm_rlt t.buf okk t.buf (off t i k) ~nb
      done;
      for i = k + 1 to t.nt - 1 do
        let oik = off t i k in
        Pblas.D.syrk_ln ~alpha:(-1.0) t.buf oik ~beta:1.0 t.buf (off t i i) ~nb;
        for j = k + 1 to i - 1 do
          Pblas.D.gemm_nt ~alpha:(-1.0) t.buf oik t.buf (off t j k) t.buf (off t i j) ~nb
        done
      done
    done

  (* Solve L Lᵀ x = b against the packed factor in place (no unpack to a
     dense Mat): forward then transposed-backward substitution, element
     order identical to Blas.trsv on the unpacked factor, so the result is
     bitwise equal to unpack-then-trsv. The loops walk the factor tile by
     tile rather than locating every element with {!get}'s divisions: a
     served request runs this solve in its pool completion callback, where
     an element-wise n=512 solve held the lane for milliseconds. *)
  let potrs t b =
    let n = t.n and nb = t.nb and buf = t.buf in
    if Array.length b <> n then invalid_arg "Packed.D.potrs: dimension mismatch";
    let y = Array.copy b in
    (* forward: L(i, j) for j = 0 .. i-1, tile (bi, bj) row r *)
    for i = 0 to n - 1 do
      let bi = i / nb and r = i mod nb in
      let acc = ref y.(i) in
      for bj = 0 to bi do
        let j0 = bj * nb in
        let row = off t bi bj + (r * nb) - j0 in
        for j = j0 to min (j0 + nb) i - 1 do
          acc := !acc -. (buf.{row + j} *. y.(j))
        done
      done;
      y.(i) <- !acc /. buf.{off t bi bi + (r * nb) + r}
    done;
    (* backward: L(j, i) for j = i+1 .. n-1, tile (bj, bi) column c *)
    for i = n - 1 downto 0 do
      let bi = i / nb and c = i mod nb in
      let acc = ref y.(i) in
      for bj = bi to t.nt - 1 do
        let j0 = bj * nb in
        let col = off t bj bi + c - (j0 * nb) in
        for j = max (i + 1) j0 to j0 + nb - 1 do
          acc := !acc -. (buf.{col + (j * nb)} *. y.(j))
        done
      done;
      y.(i) <- !acc /. buf.{off t bi bi + (c * nb) + c}
    done;
    y

  (* Sequential packed unpivoted LU, mirroring Lu.tasks program order. *)
  let getrf_nopiv t =
    let nb = t.nb in
    for k = 0 to t.nt - 1 do
      let okk = off t k k in
      Pblas.D.getrf_nopiv t.buf okk ~nb;
      for j = k + 1 to t.nt - 1 do
        Pblas.D.trsm_llu t.buf okk t.buf (off t k j) ~nb
      done;
      for i = k + 1 to t.nt - 1 do
        Pblas.D.trsm_ru t.buf okk t.buf (off t i k) ~nb
      done;
      for i = k + 1 to t.nt - 1 do
        let oik = off t i k in
        for j = k + 1 to t.nt - 1 do
          Pblas.D.gemm_nn ~alpha:(-1.0) t.buf oik t.buf (off t k j) t.buf (off t i j) ~nb
        done
      done
    done

  (* Whole-matrix C <- alpha A B + beta C over packed tiles: the packed
     GEMM the bench races against the strided blocked kernel. *)
  let gemm ~alpha a b ~beta c =
    if a.n <> b.n || a.n <> c.n || a.nb <> b.nb || a.nb <> c.nb then
      invalid_arg "Packed.gemm: geometry mismatch";
    let nb = c.nb in
    for i = 0 to c.nt - 1 do
      for j = 0 to c.nt - 1 do
        let oc = off c i j in
        if beta <> 1.0 then
          for e = oc to oc + tile_elems c - 1 do
            c.buf.{e} <- beta *. c.buf.{e}
          done;
        for k = 0 to a.nt - 1 do
          Pblas.D.gemm_nn ~alpha a.buf (off a i k) b.buf (off b k j) c.buf oc ~nb
        done
      done
    done
end

module S = struct
  type t = { n : int; nb : int; nt : int; buf : Pblas.f32 }

  let off t i j = ((i * t.nt) + j) * t.nb * t.nb

  let create ~n ~nb =
    if nb <= 0 then invalid_arg "Packed.S.create: nb must be positive";
    if n mod nb <> 0 then invalid_arg "Packed.S.create: n must be a multiple of nb";
    let nt = n / nb in
    let buf = Array1.create float32 c_layout (n * n) in
    Array1.fill buf 0.0;
    { n; nb; nt; buf }

  (* Storing a double into a float32 Bigarray rounds to nearest single —
     this is the quantization step of the mixed-precision pipeline. *)
  let of_mat ~nb (a : Mat.t) =
    if a.Mat.rows <> a.Mat.cols then invalid_arg "Packed.S.of_mat: not square";
    let n = a.Mat.rows in
    let t = create ~n ~nb in
    let ad = a.Mat.data in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let base = off t bi bj in
        for r = 0 to nb - 1 do
          let src = (((bi * nb) + r) * n) + (bj * nb) in
          let dst = base + (r * nb) in
          for c = 0 to nb - 1 do
            t.buf.{dst + c} <- ad.(src + c)
          done
        done
      done
    done;
    t

  (* Reading widens exactly: every float32 is representable in float64. *)
  let to_mat t =
    let n = t.n and nb = t.nb in
    let a = Mat.create n n in
    let ad = a.Mat.data in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let base = off t bi bj in
        for r = 0 to nb - 1 do
          let dst = (((bi * nb) + r) * n) + (bj * nb) in
          let src = base + (r * nb) in
          for c = 0 to nb - 1 do
            ad.(dst + c) <- t.buf.{src + c}
          done
        done
      done
    done;
    a

  let get t i j =
    let nb = t.nb in
    t.buf.{off t (i / nb) (j / nb) + ((i mod nb) * nb) + (j mod nb)}

  (* Stores round to nearest float32, like of_mat. *)
  let set t i j x =
    let nb = t.nb in
    t.buf.{off t (i / nb) (j / nb) + ((i mod nb) * nb) + (j mod nb)} <- x

  (* Single-precision tiled Cholesky, same program order as D.potrf. All
     arithmetic is genuine float32 in the C kernels. *)
  let potrf t =
    let nb = t.nb in
    for k = 0 to t.nt - 1 do
      let okk = off t k k in
      Pblas.S.potrf t.buf okk ~nb;
      for i = k + 1 to t.nt - 1 do
        Pblas.S.trsm_rlt t.buf okk t.buf (off t i k) ~nb
      done;
      for i = k + 1 to t.nt - 1 do
        let oik = off t i k in
        Pblas.S.syrk_ln ~alpha:(-1.0) t.buf oik ~beta:1.0 t.buf (off t i i) ~nb;
        for j = k + 1 to i - 1 do
          Pblas.S.gemm_nt ~alpha:(-1.0) t.buf oik t.buf (off t j k) t.buf (off t i j) ~nb
        done
      done
    done

  (* Solve L Lᵀ x = b reading the float32 factor but accumulating in
     double: the correction solve of mixed-precision refinement (cheap
     O(n²) next to the O(n³) factorization, and the extra accumulator
     precision costs nothing — each f32 element widens exactly). *)
  let potrs t b =
    let n = t.n in
    if Array.length b <> n then invalid_arg "Packed.S.potrs: dimension mismatch";
    let y = Array.copy b in
    for i = 0 to n - 1 do
      let acc = ref y.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (get t i j *. y.(j))
      done;
      y.(i) <- !acc /. get t i i
    done;
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (get t j i *. y.(j))
      done;
      y.(i) <- !acc /. get t i i
    done;
    y
end

(* Tile size elected by this host's kernel-tuning cache (loaded at startup
   by Kconfig.autoload / xsc tune); callers that would otherwise hard-code
   a default nb route it through here so a tuned host gets its tuned tile
   size everywhere packing happens. *)
let tuned_nb ~fallback =
  match Xsc_linalg.Kconfig.current () with
  | Some t when t.Xsc_linalg.Kconfig.nb > 0 -> t.Xsc_linalg.Kconfig.nb
  | _ -> fallback
