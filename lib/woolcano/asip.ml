(** Runtime state of the reconfigurable ASIP.

    Tracks which custom instructions currently occupy the UDI slots,
    performs (simulated) partial reconfiguration with a pluggable
    eviction policy, and accumulates the reconfiguration time — part of
    the adaptation cost in the end-to-end overhead accounting.

    Two usage modes share the same slot store and the one
    reconfiguration path ({!begin_load}):

    - The batch mode ({!load}) is a load started at [neg_infinity],
      so it completes instantaneously; it is what the offline sweep
      and [Jit_manager.timeline] use.
    - The online mode ({!begin_load} / {!dispatch_ready}) models a
      slot state machine on the simulated seconds axis the VM runs
      on: a slot whose reconfiguration is still in flight refuses CI
      dispatch until its [ready_at] deadline has passed. *)

module Ise = Jitise_ise
module Cad = Jitise_cad

type policy =
  | Lru  (** evict the least-recently-used occupant *)
  | Beneficial
      (** evict the occupant with the lowest recorded benefit (see
          {!set_benefit}); ties break on the lexicographically smallest
          signature so the choice is invariant under load order *)

let policy_name = function Lru -> "lru" | Beneficial -> "beneficial"

let policy_of_string = function
  | "lru" -> Some Lru
  | "beneficial" -> Some Beneficial
  | _ -> None

type slot = {
  mutable occupant : Cad.Bitstream.t option;
  mutable last_use : int;  (** logical clock for LRU *)
  mutable ready_at : float;
      (** simulated second at which the occupant becomes dispatchable;
          [neg_infinity] for batch-mode loads *)
}

type t = {
  policy : policy;
  slots : slot array;
  benefit : (string, float) Hashtbl.t;
      (** signature -> most recent benefit estimate (saved seconds per
          second of execution); consulted by the [Beneficial] policy *)
  mutable clock : int;
  mutable reconfig_seconds : float;  (** cumulative reconfiguration time *)
  mutable reconfigurations : int;
  mutable evictions : int;
}

let create ?slots ?(policy = Lru) () =
  let n =
    match slots with Some n -> n | None -> Arch.default.Arch.udi_slots
  in
  if n < 1 then invalid_arg "Asip.create: slot count must be >= 1";
  {
    policy;
    slots =
      Array.init n (fun _ ->
          { occupant = None; last_use = 0; ready_at = neg_infinity });
    benefit = Hashtbl.create 16;
    clock = 0;
    reconfig_seconds = 0.0;
    reconfigurations = 0;
    evictions = 0;
  }

exception Corrupt_bitstream of string
(** Raised by {!load} and {!begin_load} when a bitstream fails its
    integrity check (checksum mismatch — see
    [Cad.Bitstream.well_formed]).  The reconfiguration controller
    refuses to configure fabric from a corrupt image; the JIT manager
    treats this like any other CAD failure and falls back to software
    execution. *)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(** Slot index currently holding [signature], if loaded. *)
let find t signature =
  let found = ref None in
  Array.iteri
    (fun idx s ->
      match s.occupant with
      | Some b when b.Cad.Bitstream.signature = signature -> found := Some idx
      | _ -> ())
    t.slots;
  !found

let set_benefit t signature v = Hashtbl.replace t.benefit signature v

let benefit_of t signature =
  Option.value ~default:0.0 (Hashtbl.find_opt t.benefit signature)

(* Slot the next load will claim: a free slot when one exists (lowest
   index — free slots score -1 in the LRU scan, matching the original
   batch loader byte for byte), else the policy's victim. *)
let victim_slot t =
  match t.policy with
  | Lru ->
      let victim = ref 0 in
      let best = ref max_int in
      Array.iteri
        (fun idx s ->
          let score = match s.occupant with None -> -1 | Some _ -> s.last_use in
          if score < !best then begin
            best := score;
            victim := idx
          end)
        t.slots;
      !victim
  | Beneficial ->
      let free = ref None in
      Array.iteri
        (fun idx s -> if s.occupant = None && !free = None then free := Some idx)
        t.slots;
      (match !free with
      | Some idx -> idx
      | None ->
          let victim = ref 0 in
          let best = ref None in
          Array.iteri
            (fun idx s ->
              match s.occupant with
              | None -> ()
              | Some b ->
                  let key =
                    ( benefit_of t b.Cad.Bitstream.signature,
                      b.Cad.Bitstream.signature )
                  in
                  (match !best with
                  | None ->
                      best := Some key;
                      victim := idx
                  | Some k ->
                      if key < k then begin
                        best := Some key;
                        victim := idx
                      end))
            t.slots;
          !victim)

(** Signature the next load would displace, or [None] when a free slot
    is available.  Lets the controller apply hysteresis before
    committing to an eviction. *)
let peek_victim t =
  if Array.exists (fun s -> s.occupant = None) t.slots then None
  else
    Option.map
      (fun b -> b.Cad.Bitstream.signature)
      t.slots.(victim_slot t).occupant

let check_image (bitstream : Cad.Bitstream.t) =
  if not (Cad.Bitstream.well_formed bitstream) then
    raise (Corrupt_bitstream bitstream.Cad.Bitstream.signature);
  if bitstream.Cad.Bitstream.luts > Arch.default.Arch.slot_lut_capacity then
    invalid_arg
      (Printf.sprintf "Asip.load: %s (%d LUTs) exceeds slot capacity %d"
         bitstream.Cad.Bitstream.signature bitstream.Cad.Bitstream.luts
         Arch.default.Arch.slot_lut_capacity)

(** Start loading [bitstream] at simulated second [now_seconds].  The
    claimed slot refuses dispatch until [now_seconds + load latency]
    (per [Arch.reconfiguration_seconds]).  Returns
    [(slot, reconfigured, ready_at)]; a resident image is left alone
    and reports its existing deadline.
    @raise Corrupt_bitstream when the image fails its checksum check
    @raise Invalid_argument when the image exceeds the slot capacity *)
let begin_load t ~now_seconds (bitstream : Cad.Bitstream.t) =
  check_image bitstream;
  match find t bitstream.Cad.Bitstream.signature with
  | Some idx ->
      t.slots.(idx).last_use <- tick t;
      (idx, false, t.slots.(idx).ready_at)
  | None ->
      let now = tick t in
      let victim = victim_slot t in
      let seconds = Arch.reconfiguration_seconds bitstream in
      let ready_at = now_seconds +. seconds in
      if t.slots.(victim).occupant <> None then t.evictions <- t.evictions + 1;
      t.slots.(victim).occupant <- Some bitstream;
      t.slots.(victim).last_use <- now;
      t.slots.(victim).ready_at <- ready_at;
      t.reconfigurations <- t.reconfigurations + 1;
      t.reconfig_seconds <- t.reconfig_seconds +. seconds;
      (victim, true, ready_at)

(** Ensure [bitstream] is loaded; reconfigures (evicting per the
    eviction policy if full) unless it is already resident.  Returns the
    slot index and whether a reconfiguration happened.  Batch mode: a
    {!begin_load} started at [neg_infinity], so the slot is immediately
    dispatchable.
    @raise Corrupt_bitstream when the image fails its checksum check
    @raise Invalid_argument when the image exceeds the slot capacity *)
let load t (bitstream : Cad.Bitstream.t) =
  let slot, reconfigured, _ =
    begin_load t ~now_seconds:neg_infinity bitstream
  in
  (slot, reconfigured)

(** Bump the LRU clock for a resident signature (a dispatch). *)
let touch t signature =
  match find t signature with
  | None -> ()
  | Some idx -> t.slots.(idx).last_use <- tick t

(** [true] iff [signature] is resident AND its reconfiguration has
    completed — the fabric refuses CI dispatch mid-reconfiguration. *)
let dispatch_ready t ~now_seconds signature =
  match find t signature with
  | None -> false
  | Some idx -> t.slots.(idx).ready_at <= now_seconds

let occupancy t =
  Array.fold_left
    (fun acc s -> match s.occupant with Some _ -> acc + 1 | None -> acc)
    0 t.slots
