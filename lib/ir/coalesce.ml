(** Phi-congruence classes: which registers of a strict-SSA function
    may share one storage location, so that a phi and the incoming
    values it joins need no copy — PHI elimination's register
    coalescing, done on the SSA form.

    The candidates are a phi and each register entry of that phi of
    the same type.  A register defined by [Gaddr] is never one: its
    value is a constant of the run, which a consumer folds into its
    uses instead.  Phis are visited in block order and each candidate
    pair's classes are joined (union-find) when no member of one
    interferes with any member of the other.  Interference is the exact
    strict-SSA test: two registers interfere iff one is live
    immediately after the other's definition.  Phis and parameters are
    defined at the entry of their block, so two phis of one block (or
    two parameters) always interfere, and a definition nothing reads
    still counts: it clobbers the location.

    Liveness is computed only for the tracked registers (the phis with
    a register entry, and those entries), one register at a time, by
    walking backward from its uses to its definition (path
    exploration).  The work space is a few arrays over the tracked
    registers (numbered by rank) and the blocks, kept in a {!scratch}
    that a caller reuses across the functions it analyzes: it grows to
    the largest function, and a function whose phis have no register
    entry allocates nothing. *)

type t = {
  members : int array;
      (** ascending: every register of a class of two or more *)
  reps : int array;
      (** [reps.(k)]: the least register of [members.(k)]'s class *)
}

let none = { members = [||]; reps = [||] }

(* The work space of one function at a time, grown on demand.  Tracked
   register [regs.(i)] is numbered [i]; [regs] is ascending up to [n], so
   the least index of a class is its least register.  Use [u] of
   tracked register [i] ([use_start.(i) <= u < use_start.(i + 1)]) is
   [uses.(u) = 2b] for a read at position [use_pos.(u)] of block [b]
   (the terminator's position is the block's length), or [2p + 1] for a
   phi entry from predecessor [p], which reads at the end of [p].
   [preds] lists block [b]'s predecessors from [pred_start.(b)] up to
   [pred_start.(b + 1)] (a switch may list one twice).  Both lists are
   built by counting, then [filling] from the top down.  [live_in] and
   [live_out] hold, per block, the [stamp] of the last liveness computed
   there: they are the live-in and live-out sets of tracked register
   [cur]. *)
type scratch = {
  mutable blocks : Block.t array;
  mutable regs : int array;
  mutable n : int;
  mutable ty : Ty.t array;  (** [Void]: never a candidate *)
  mutable def_block : int array;
  mutable def_pos : int array;  (** [-1] for a phi or a parameter *)
  mutable use_start : int array;
  mutable uses : int array;
  mutable use_pos : int array;
  mutable pred_start : int array;
  mutable preds : int array;
  mutable filling : bool;
  mutable live_in : int array;
  mutable live_out : int array;
  mutable stack : int array;
  mutable stamp : int;
  mutable cur : int;
  mutable parent : int array;  (** union-find, the root the least index *)
  mutable next : int array;  (** each class as a cycle, to visit its members *)
}

(** An empty work space. *)
let scratch () =
  {
    blocks = [||];
    regs = [||];
    n = 0;
    ty = [||];
    def_block = [||];
    def_pos = [||];
    use_start = [||];
    uses = [||];
    use_pos = [||];
    pred_start = [||];
    preds = [||];
    filling = false;
    live_in = [||];
    live_out = [||];
    stack = [||];
    stamp = 0;
    cur = -1;
    parent = [||];
    next = [||];
  }

(* [a] if it holds [n] elements, else a larger array of [x]. *)
let fit a n x =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) x

(* ------------------------------------------------------------------ *)
(* Tracked registers                                                   *)
(* ------------------------------------------------------------------ *)

let push sc r =
  if sc.n = Array.length sc.regs then begin
    let a = Array.make (max 16 (2 * sc.n)) 0 in
    Array.blit sc.regs 0 a 0 sc.n;
    sc.regs <- a
  end;
  sc.regs.(sc.n) <- r;
  sc.n <- sc.n + 1

let rec push_entries sc pushed = function
  | [] -> pushed
  | (_, Instr.Reg x) :: rest ->
      push sc x;
      push_entries sc true rest
  | (_, Instr.Const _) :: rest -> push_entries sc pushed rest

(* Phis lead their block. *)
let rec push_phis sc = function
  | { Instr.kind = Instr.Phi entries; id; _ } :: rest ->
      if push_entries sc false entries then push sc id;
      push_phis sc rest
  | _ -> ()

(* Sort [a.(0) .. a.(n - 1)] in place: a Shell sort, which allocates
   nothing ([Array.sort] allocates an exception per sift). *)
let sort_prefix (a : int array) n =
  let gap = ref 1 in
  while !gap < n / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap >= 1 do
    let g = !gap in
    for i = g to n - 1 do
      let x = a.(i) in
      let j = ref i in
      while !j >= g && a.(!j - g) > x do
        a.(!j) <- a.(!j - g);
        j := !j - g
      done;
      a.(!j) <- x
    done;
    gap := g / 3
  done

(* The index of register [r] in [regs.(lo) .. regs.(hi - 1)], [-1]
   when it is not there. *)
let rec search (regs : int array) (r : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = regs.(mid) in
    if x = r then mid
    else if x < r then search regs r (mid + 1) hi
    else search regs r lo mid

(* The index of register [r], [-1] when it is not tracked. *)
let index sc r = search sc.regs r 0 sc.n

(* Record the definitions of tracked registers among [instrs] of block
   [b], from position [k]. *)
let rec define sc b k = function
  | [] -> ()
  | (i : Instr.t) :: rest ->
      let x = index sc i.Instr.id in
      if x >= 0 then begin
        (match i.Instr.kind with
        | Instr.Gaddr _ -> sc.ty.(x) <- Ty.Void
        | Instr.Phi _ -> sc.ty.(x) <- i.Instr.ty
        | _ ->
            sc.ty.(x) <- i.Instr.ty;
            sc.def_pos.(x) <- k);
        sc.def_block.(x) <- b
      end;
      define sc b (k + 1) rest

let rec define_params sc = function
  | [] -> ()
  | (r, ty) :: rest ->
      let x = index sc r in
      if x >= 0 then sc.ty.(x) <- ty;
      define_params sc rest

(* ------------------------------------------------------------------ *)
(* Uses and predecessors, with no list or closure per instruction      *)
(* ------------------------------------------------------------------ *)

(* Turn the counts in [start.(1 .. len)] into each list's end, where
   filling starts; returns the total. *)
let list_ends start len =
  for k = 1 to len do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  Array.blit start 1 start 0 len;
  start.(len)

let edge sc b s =
  if sc.filling then begin
    let j = sc.pred_start.(s) - 1 in
    sc.pred_start.(s) <- j;
    sc.preds.(j) <- b
  end
  else sc.pred_start.(s + 1) <- sc.pred_start.(s + 1) + 1

let rec case_edges sc b = function
  | [] -> ()
  | (_, l) :: rest ->
      edge sc b l;
      case_edges sc b rest

(* Count or record a use of [op] coded [code] at position [k]. *)
let note sc code k = function
  | Instr.Const _ -> ()
  | Instr.Reg r ->
      let i = index sc r in
      if i >= 0 then
        if sc.filling then begin
          let j = sc.use_start.(i) - 1 in
          sc.use_start.(i) <- j;
          sc.uses.(j) <- code;
          sc.use_pos.(j) <- k
        end
        else sc.use_start.(i + 1) <- sc.use_start.(i + 1) + 1

let rec note_args sc code k = function
  | [] -> ()
  | op :: rest ->
      note sc code k op;
      note_args sc code k rest

let rec note_entries sc = function
  | [] -> ()
  | (p, op) :: rest ->
      note sc ((2 * p) + 1) 0 op;
      note_entries sc rest

let rec note_instrs sc b k = function
  | [] -> k
  | (i : Instr.t) :: rest ->
      (match i.Instr.kind with
      | Instr.Binop (_, x, y)
      | Instr.Icmp (_, x, y)
      | Instr.Fcmp (_, x, y)
      | Instr.Gep (x, y)
      | Instr.Store (x, y) ->
          note sc (2 * b) k x;
          note sc (2 * b) k y
      | Instr.Cast (_, x) | Instr.Load x -> note sc (2 * b) k x
      | Instr.Select (c, x, y) ->
          note sc (2 * b) k c;
          note sc (2 * b) k x;
          note sc (2 * b) k y
      | Instr.Call (_, args) | Instr.Ci_call (_, args) ->
          note_args sc (2 * b) k args
      | Instr.Phi entries -> note_entries sc entries
      | Instr.Alloca _ | Instr.Gaddr _ -> ());
      note_instrs sc b (k + 1) rest

(* One pass over the function: count, or with [sc.filling] record,
   every edge and every use of a tracked register. *)
let walk sc =
  for b = 0 to Array.length sc.blocks - 1 do
    let blk = sc.blocks.(b) in
    let k = note_instrs sc b 0 blk.Block.instrs in
    match blk.Block.term with
    | Instr.Ret None -> ()
    | Instr.Ret (Some op) -> note sc (2 * b) k op
    | Instr.Br l -> edge sc b l
    | Instr.Cond_br (c, x, y) ->
        note sc (2 * b) k c;
        edge sc b x;
        if y <> x then edge sc b y
    | Instr.Switch (s, d, cases) ->
        note sc (2 * b) k s;
        edge sc b d;
        case_edges sc b cases
  done

(* ------------------------------------------------------------------ *)
(* Liveness and interference                                           *)
(* ------------------------------------------------------------------ *)

(* Mark block [b] live-in, unless it is [stop] (the defining block) or
   marked already, and push it; returns the new stack top. *)
let reach sc stop top b =
  if b <> stop && sc.live_in.(b) <> sc.stamp then begin
    sc.live_in.(b) <- sc.stamp;
    sc.stack.(top) <- b;
    top + 1
  end
  else top

(* Compute tracked register [i]'s live-in and live-out blocks into the
   stamps, unless they are there already.  The walk stops at the
   defining block, except for a parameter: it is defined before the
   entry block runs, so it may be live around a branch back to it. *)
let liveness sc i =
  if sc.cur <> i then begin
    sc.cur <- i;
    sc.stamp <- sc.stamp + 1;
    let stop =
      if sc.def_pos.(i) < 0 && sc.def_block.(i) = Func.entry_label then -1
      else sc.def_block.(i)
    in
    let top = ref 0 in
    for u = sc.use_start.(i) to sc.use_start.(i + 1) - 1 do
      let code = sc.uses.(u) in
      if code land 1 = 1 then sc.live_out.(code lsr 1) <- sc.stamp;
      top := reach sc stop !top (code lsr 1)
    done;
    while !top > 0 do
      decr top;
      let b = sc.stack.(!top) in
      for e = sc.pred_start.(b) to sc.pred_start.(b + 1) - 1 do
        let q = sc.preds.(e) in
        sc.live_out.(q) <- sc.stamp;
        top := reach sc stop !top q
      done
    done
  end

(* Whether a use of tracked [i], from its [u]th on, reads it in block
   [b] after position [k]. *)
let rec used_after sc i b k u =
  u < sc.use_start.(i + 1)
  && ((sc.uses.(u) = 2 * b && sc.use_pos.(u) > k) || used_after sc i b k (u + 1))

(* Whether tracked [a] is live immediately after tracked [b]'s
   definition. *)
let live_at_def sc a b =
  let db = sc.def_block.(b) and pb = sc.def_pos.(b) in
  let da = sc.def_block.(a) and pa = sc.def_pos.(a) in
  if da = db && pa < 0 && pb < 0 then true (* defined together *)
  else if da = db && pa > pb then false (* [a] is defined after [b] *)
  else begin
    liveness sc a;
    if pb < 0 then sc.live_in.(db) = sc.stamp
    else
      (da = db || sc.live_in.(db) = sc.stamp)
      && (sc.live_out.(db) = sc.stamp
         || used_after sc a db pb sc.use_start.(a))
  end

(* Whether [a] is live at the definition of a member of [b0]'s class,
   visiting its cycle from [b]. *)
let rec live_at_any sc a b b0 =
  live_at_def sc a b
  ||
  let b = sc.next.(b) in
  b <> b0 && live_at_any sc a b b0

(* Whether a member of [a0]'s class, visiting its cycle from [a], is
   live at the definition of a member of [b0]'s class. *)
let rec live_across sc a a0 b0 =
  live_at_any sc a b0 b0
  ||
  let a = sc.next.(a) in
  a <> a0 && live_across sc a a0 b0

let rec find sc i =
  let p = sc.parent.(i) in
  if p = i then i
  else
    let r = find sc p in
    sc.parent.(i) <- r;
    r

(* Join the classes of phi [ip] and its entry [x] when they do not
   interfere. *)
let try_join sc ip x =
  let ix = index sc x in
  if ix >= 0 && Ty.equal sc.ty.(ix) sc.ty.(ip) then begin
    let ri = find sc ip and rx = find sc ix in
    if
      ri <> rx
      && not (live_across sc ri ri rx || live_across sc rx rx ri)
    then begin
      sc.parent.(max ri rx) <- min ri rx;
      let t = sc.next.(ri) in
      sc.next.(ri) <- sc.next.(rx);
      sc.next.(rx) <- t
    end
  end

let rec join_entries sc ip = function
  | [] -> ()
  | (_, Instr.Reg x) :: rest ->
      if x <> sc.regs.(ip) then try_join sc ip x;
      join_entries sc ip rest
  | (_, Instr.Const _) :: rest -> join_entries sc ip rest

let rec join_phis sc = function
  | { Instr.kind = Instr.Phi entries; id; _ } :: rest ->
      let ip = index sc id in
      if ip >= 0 && sc.ty.(ip) <> Ty.Void then join_entries sc ip entries;
      join_phis sc rest
  | _ -> ()

(** The phi-congruence classes of a verified function, computed in
    [sc]. *)
let classes (sc : scratch) (f : Func.t) : t =
  let blocks = f.Func.blocks in
  let nblocks = Array.length blocks in
  sc.n <- 0;
  for b = 0 to nblocks - 1 do
    push_phis sc blocks.(b).Block.instrs
  done;
  if sc.n = 0 then none
  else begin
    let regs = sc.regs in
    sort_prefix regs sc.n;
    let n = ref 1 in
    for k = 1 to sc.n - 1 do
      if regs.(k) <> regs.(!n - 1) then begin
        regs.(!n) <- regs.(k);
        incr n
      end
    done;
    let n = !n in
    sc.n <- n;
    sc.blocks <- blocks;
    sc.ty <- fit sc.ty n Ty.Void;
    sc.def_block <- fit sc.def_block n 0;
    sc.def_pos <- fit sc.def_pos n 0;
    sc.use_start <- fit sc.use_start (n + 1) 0;
    sc.parent <- fit sc.parent n 0;
    sc.next <- fit sc.next n 0;
    for i = 0 to n - 1 do
      sc.ty.(i) <- Ty.Void;
      sc.def_block.(i) <- Func.entry_label;
      sc.def_pos.(i) <- -1;
      sc.use_start.(i) <- 0;
      sc.parent.(i) <- i;
      sc.next.(i) <- i
    done;
    sc.use_start.(n) <- 0;
    define_params sc f.Func.params;
    for b = 0 to nblocks - 1 do
      define sc b 0 blocks.(b).Block.instrs
    done;
    sc.pred_start <- fit sc.pred_start (nblocks + 1) 0;
    Array.fill sc.pred_start 0 (nblocks + 1) 0;
    sc.live_in <- fit sc.live_in nblocks 0;
    sc.live_out <- fit sc.live_out nblocks 0;
    sc.stack <- fit sc.stack nblocks 0;
    sc.cur <- -1;
    sc.filling <- false;
    walk sc;
    sc.preds <- fit sc.preds (list_ends sc.pred_start nblocks) 0;
    let nuses = list_ends sc.use_start n in
    sc.uses <- fit sc.uses nuses 0;
    sc.use_pos <- fit sc.use_pos nuses 0;
    sc.filling <- true;
    walk sc;
    for b = 0 to nblocks - 1 do
      join_phis sc blocks.(b).Block.instrs
    done;
    sc.blocks <- [||];
    let shared = ref 0 in
    for i = 0 to n - 1 do
      if sc.next.(i) <> i then incr shared
    done;
    if !shared = 0 then none
    else begin
      let members = Array.make !shared 0 and reps = Array.make !shared 0 in
      let k = ref 0 in
      for i = 0 to n - 1 do
        if sc.next.(i) <> i then begin
          members.(!k) <- regs.(i);
          reps.(!k) <- regs.(find sc i);
          incr k
        end
      done;
      { members; reps }
    end
  end
