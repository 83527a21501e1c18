(** Operational semantics of scalar IR operations.

    One shared evaluator gives the constant folder and the virtual
    machine identical arithmetic: integers are carried sign-extended in
    [int64] and renormalized to their type width after every operation;
    [F32] results are rounded through 32-bit floats. *)

type value =
  | VInt of int64   (** any integer type, sign-extended to 64 bits *)
  | VFloat of float (** F32 or F64; F32 is kept rounded *)
  | VPtr of int     (** cell address in VM memory *)

exception Division_by_zero
exception Type_error of string

let type_error fmt = Printf.ksprintf (fun m -> raise (Type_error m)) fmt

(* Sign-extend [v] to 64 bits from the width of [ty].  [I1] is the
   exception: booleans are canonically 0 or 1, never -1. *)
let normalize (ty : Ty.t) v =
  let bits = Ty.bits ty in
  if ty = Ty.I1 then Int64.logand v 1L
  else if bits >= 64 then v
  else
    let shift = 64 - bits in
    Int64.shift_right (Int64.shift_left v shift) shift

(* Zero-extended (unsigned) view of [v] at the width of [ty]. *)
let umask (ty : Ty.t) v =
  let bits = Ty.bits ty in
  if bits >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)

let[@inline] round_f32 v = Int32.float_of_bits (Int32.bits_of_float v)
let round_float (ty : Ty.t) v = if ty = Ty.F32 then round_f32 v else v

let of_const = function
  | Instr.Cint (v, ty) -> VInt (normalize ty v)
  | Instr.Cfloat (v, ty) -> VFloat (round_float ty v)

let[@inline] as_int = function
  | VInt v -> v
  | VPtr p -> Int64.of_int p
  | VFloat _ -> type_error "expected an integer value"

let[@inline] as_float = function
  | VFloat v -> v
  | VInt _ | VPtr _ -> type_error "expected a float value"

let[@inline] as_ptr = function
  | VPtr p -> p
  | VInt v -> Int64.to_int v
  | VFloat _ -> type_error "expected an address"

let[@inline] is_true = function
  | VInt v -> v <> 0L
  | VFloat v -> v <> 0.0
  | VPtr p -> p <> 0

(* Shift amounts follow hardware practice: masked by the operand
   width. *)
let shift_amount ty b =
  let w = Ty.bits ty in
  let w = if w <= 0 then 64 else w in
  Int64.to_int b land (if w >= 64 then 63 else w - 1)

(* ------------------------------------------------------------------ *)
(* Pre-specialized operation closures (the VM's threaded-code engine
   builds these once per block at prepare time).  Each [*_fn] resolves
   everything that depends only on the static instruction — the
   operator, the type's width normalization, the F32 rounding mode —
   and returns a closure that does no dispatch per application.  The
   interpretive [eval_*] entry points below are thin wrappers over the
   same closures, so both VM engines and the constant folder share one
   set of semantics by construction. *)

(* Flattened renormalization: a closure-call-free inline of
   {!normalize}.  [norm_shift ty] is 0 for >= 64-bit types, making the
   two shifts an identity; [I1] needs the boolean mask instead and is
   signalled as [-1].  The arms below branch on a captured immutable
   int — perfectly predicted — instead of calling a captured closure. *)
let norm_shift (ty : Ty.t) : int =
  if ty = Ty.I1 then -1
  else
    let bits = Ty.bits ty in
    if bits >= 64 then 0 else 64 - bits

let[@inline] renorm sh v =
  if sh >= 0 then Int64.shift_right (Int64.shift_left v sh) sh
  else Int64.logand v 1L

let binop_fn (ty : Ty.t) (op : Instr.binop) : value -> value -> value =
  match op with
  | Instr.Fadd ->
      if ty = Ty.F32 then
        fun a b -> VFloat (round_f32 (as_float a +. as_float b))
      else fun a b -> VFloat (as_float a +. as_float b)
  | Instr.Fsub ->
      if ty = Ty.F32 then
        fun a b -> VFloat (round_f32 (as_float a -. as_float b))
      else fun a b -> VFloat (as_float a -. as_float b)
  | Instr.Fmul ->
      if ty = Ty.F32 then
        fun a b -> VFloat (round_f32 (as_float a *. as_float b))
      else fun a b -> VFloat (as_float a *. as_float b)
  | Instr.Fdiv ->
      if ty = Ty.F32 then
        fun a b -> VFloat (round_f32 (as_float a /. as_float b))
      else fun a b -> VFloat (as_float a /. as_float b)
  | _ ->
      let sh = norm_shift ty in
      (match op with
      | Instr.Add ->
          fun a b -> VInt (renorm sh (Int64.add (as_int a) (as_int b)))
      | Instr.Sub ->
          fun a b -> VInt (renorm sh (Int64.sub (as_int a) (as_int b)))
      | Instr.Mul ->
          fun a b -> VInt (renorm sh (Int64.mul (as_int a) (as_int b)))
      | Instr.Sdiv ->
          fun a b ->
            let x = as_int a and y = as_int b in
            if y = 0L then raise Division_by_zero
            else VInt (renorm sh (Int64.div x y))
      | Instr.Srem ->
          fun a b ->
            let x = as_int a and y = as_int b in
            if y = 0L then raise Division_by_zero
            else VInt (renorm sh (Int64.rem x y))
      | Instr.Udiv ->
          fun a b ->
            let x = as_int a and y = as_int b in
            let y' = umask ty y in
            if y' = 0L then raise Division_by_zero
            else VInt (renorm sh (Int64.unsigned_div (umask ty x) y'))
      | Instr.Urem ->
          fun a b ->
            let x = as_int a and y = as_int b in
            let y' = umask ty y in
            if y' = 0L then raise Division_by_zero
            else VInt (renorm sh (Int64.unsigned_rem (umask ty x) y'))
      | Instr.And ->
          fun a b -> VInt (renorm sh (Int64.logand (as_int a) (as_int b)))
      | Instr.Or ->
          fun a b -> VInt (renorm sh (Int64.logor (as_int a) (as_int b)))
      | Instr.Xor ->
          fun a b -> VInt (renorm sh (Int64.logxor (as_int a) (as_int b)))
      | Instr.Shl ->
          fun a b ->
            VInt
              (renorm sh
                 (Int64.shift_left (as_int a) (shift_amount ty (as_int b))))
      | Instr.Lshr ->
          fun a b ->
            VInt
              (renorm sh
                 (Int64.shift_right_logical
                    (umask ty (as_int a))
                    (shift_amount ty (as_int b))))
      | Instr.Ashr ->
          fun a b ->
            VInt
              (renorm sh
                 (Int64.shift_right (as_int a) (shift_amount ty (as_int b))))
      | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> assert false)

(* The comparison arms are written out one per predicate — rather than
   parameterized over a captured test function — so each returned
   closure runs with no inner indirect call.  Unsigned predicates
   compare the raw two's-complement bits, which for sign-extended
   operands of equal original width is exactly
   [Int64.unsigned_compare]. *)
let[@inline] vbool b : value = VInt (if b then 1L else 0L)

let icmp_fn (p : Instr.icmp_pred) : value -> value -> value =
  match p with
  | Instr.Ieq -> fun a b -> vbool (Int64.equal (as_int a) (as_int b))
  | Instr.Ine -> fun a b -> vbool (not (Int64.equal (as_int a) (as_int b)))
  | Instr.Islt -> fun a b -> vbool (Int64.compare (as_int a) (as_int b) < 0)
  | Instr.Isle -> fun a b -> vbool (Int64.compare (as_int a) (as_int b) <= 0)
  | Instr.Isgt -> fun a b -> vbool (Int64.compare (as_int a) (as_int b) > 0)
  | Instr.Isge -> fun a b -> vbool (Int64.compare (as_int a) (as_int b) >= 0)
  | Instr.Iult ->
      fun a b -> vbool (Int64.unsigned_compare (as_int a) (as_int b) < 0)
  | Instr.Iule ->
      fun a b -> vbool (Int64.unsigned_compare (as_int a) (as_int b) <= 0)
  | Instr.Iugt ->
      fun a b -> vbool (Int64.unsigned_compare (as_int a) (as_int b) > 0)
  | Instr.Iuge ->
      fun a b -> vbool (Int64.unsigned_compare (as_int a) (as_int b) >= 0)

(* Ordered float predicates: false if either operand is NaN.  The
   OCaml [<] etc. on floats are already NaN-false, but [<>] is
   NaN-true, so the explicit NaN test stays. *)
let fcmp_fn (p : Instr.fcmp_pred) : value -> value -> value =
  let[@inline] ord x y = not (Float.is_nan x || Float.is_nan y) in
  match p with
  | Instr.Foeq ->
      fun a b ->
        let x = as_float a and y = as_float b in
        vbool (ord x y && x = y)
  | Instr.Fone ->
      fun a b ->
        let x = as_float a and y = as_float b in
        vbool (ord x y && x <> y)
  | Instr.Folt ->
      fun a b ->
        let x = as_float a and y = as_float b in
        vbool (ord x y && x < y)
  | Instr.Fole ->
      fun a b ->
        let x = as_float a and y = as_float b in
        vbool (ord x y && x <= y)
  | Instr.Fogt ->
      fun a b ->
        let x = as_float a and y = as_float b in
        vbool (ord x y && x > y)
  | Instr.Foge ->
      fun a b ->
        let x = as_float a and y = as_float b in
        vbool (ord x y && x >= y)

let cast_fn (c : Instr.cast) ~(from_ : Ty.t) ~(to_ : Ty.t) : value -> value =
  match c with
  | Instr.Trunc | Instr.Sext ->
      let sh = norm_shift to_ in
      fun a -> VInt (renorm sh (as_int a))
  | Instr.Zext ->
      (* Recover the unsigned bits at the source width, then renormalize
         at the destination width. *)
      let sh = norm_shift to_ in
      fun a -> VInt (renorm sh (umask from_ (as_int a)))
  | Instr.Fptosi ->
      let sh = norm_shift to_ in
      fun a ->
        let f = as_float a in
        if Float.is_nan f then VInt 0L else VInt (renorm sh (Int64.of_float f))
  | Instr.Sitofp ->
      if to_ = Ty.F32 then fun a -> VFloat (round_f32 (Int64.to_float (as_int a)))
      else fun a -> VFloat (Int64.to_float (as_int a))
  | Instr.Fpext -> fun a -> VFloat (as_float a)
  | Instr.Fptrunc ->
      if to_ = Ty.F32 then fun a -> VFloat (round_f32 (as_float a))
      else fun a -> VFloat (as_float a)
  | Instr.Bitcast -> (
      fun a ->
        match (a, to_) with
        | VInt v, Ty.F32 -> VFloat (Int32.float_of_bits (Int64.to_int32 v))
        | VInt v, Ty.F64 -> VFloat (Int64.float_of_bits v)
        | VFloat f, Ty.F64 -> VFloat f
        | VFloat f, ty when Ty.is_int ty && Ty.bits ty = 32 ->
            VInt (normalize ty (Int64.of_int32 (Int32.bits_of_float f)))
        | VFloat f, ty when Ty.is_int ty ->
            VInt (normalize ty (Int64.bits_of_float f))
        | v, _ -> v)

(* Interpretive entry points (constant folder, reference VM engine) —
   one source of truth with the closure builders above. *)

let eval_binop (ty : Ty.t) (op : Instr.binop) (a : value) (b : value) : value =
  (binop_fn ty op) a b

let eval_icmp (p : Instr.icmp_pred) (a : value) (b : value) : value =
  (icmp_fn p) a b

let eval_fcmp (p : Instr.fcmp_pred) (a : value) (b : value) : value =
  (fcmp_fn p) a b

let eval_cast (c : Instr.cast) ~(from_ : Ty.t) ~(to_ : Ty.t) (a : value) : value
    =
  (cast_fn c ~from_ ~to_) a

let eval_select (c : value) (a : value) (b : value) = if is_true c then a else b

let pp_value ppf = function
  | VInt v -> Format.fprintf ppf "%Ld" v
  | VFloat v -> Format.fprintf ppf "%g" v
  | VPtr p -> Format.fprintf ppf "&%d" p

let equal_value a b =
  match (a, b) with
  | VInt x, VInt y -> Int64.equal x y
  | VFloat x, VFloat y -> x = y || (Float.is_nan x && Float.is_nan y)
  | VPtr x, VPtr y -> x = y
  | _ -> false
