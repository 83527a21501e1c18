(** Partial-reconfiguration bitstreams.

    The terminal artifact of the CAD flow: an opaque configuration
    image, keyed by the candidate's structural signature so the
    bitstream cache of Section VI-A can reuse it across invocations and
    even across applications.

    Each bitstream carries a CRC-style checksum over its header fields,
    mirroring the integrity word real Xilinx configuration images embed.
    {!Flow} computes it at generation time; the Woolcano reconfiguration
    controller re-verifies it before loading a slot, so a corrupted
    image (the {!Faults.Bitgen_corruption} failure mode, or tampering in
    a store-and-forward cache) is rejected at load time instead of
    silently configuring garbage fabric. *)

type t = {
  signature : string;   (** candidate structural signature (cache key) *)
  size_bytes : int;
  frames : int;         (** partial-reconfiguration frames covered *)
  luts : int;           (** area of the implemented data path *)
  generation_seconds : float;
      (** simulated CAD time that produced this bitstream (sum of all
          stages); what a cache hit saves *)
  checksum : int;
      (** integrity word over the header fields; see {!well_formed} *)
}

(** The checksum a well-formed image must carry (stable FNV-style hash
    of the header fields). *)
let expected_checksum ~signature ~size_bytes ~frames ~luts =
  Jitise_util.Prng.hash_string
    (Printf.sprintf "bitstream:%s:%d:%d:%d" signature size_bytes frames luts)

(** Build a well-formed bitstream (checksum computed). *)
let make ~signature ~size_bytes ~frames ~luts ~generation_seconds =
  {
    signature;
    size_bytes;
    frames;
    luts;
    generation_seconds;
    checksum = expected_checksum ~signature ~size_bytes ~frames ~luts;
  }

(** Does the stored checksum match the header fields? *)
let well_formed t =
  t.checksum
  = expected_checksum ~signature:t.signature ~size_bytes:t.size_bytes
      ~frames:t.frames ~luts:t.luts

(** A corrupted copy of [t] (flipped checksum), as bitgen's
    {!Faults.Bitgen_corruption} failure mode would produce; a test
    hook, since the fault model raises instead.  [well_formed] rejects
    it. *)
let corrupt t = { t with checksum = lnot t.checksum }
