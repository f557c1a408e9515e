(** Closed-form distribution geometry.

    Each tensor dimension meets each machine dimension as a block, a
    cyclic strip, a fixed coordinate or a broadcast, so a tile is a
    product of per-dimension segments and levels cut their segments from
    the previous level's. This module answers the executor's geometry
    questions from those per-dimension forms without materialising tiles.
    Every answer equals a scan over {!Distnot.tiles} with virtual owners
    folded onto the physical grid, in its order: pieces in tile discovery
    order, owners deduped in discovery order, merged runs in canonical
    lexicographic order. *)

type t

val create :
  merge:(Distal_tensor.Rect.t list -> Distal_tensor.Rect.t list) ->
  Distnot.t -> shape:int array -> machine:Distal_machine.Machine.t -> nprocs:int -> t
(** Geometry of a validated distribution over [machine] (possibly a
    virtual grid) whose processors fold onto [nprocs] physical ones by
    linear index modulo [nprocs]. [merge] (the planner's fixed-point rect
    merger) serves only owner groups whose pieces are not a product of
    per-dimension segment lists: virtual colors folded irregularly. *)

type group = {
  owners : int list;  (** physical linear indices *)
  merged : Distal_tensor.Rect.t list;  (** abutting pieces unioned *)
  nfrag : int;  (** number of pieces *)
  volume : int;  (** elements over the pieces *)
  pieces : Distal_tensor.Rect.t list Lazy.t;
}

val pieces : t -> Distal_tensor.Rect.t -> group list
(** A footprint's intersections with the tiles, grouped by owner set, in
    the order of each group's first piece. *)

val fragments : t -> Distal_tensor.Rect.t -> (Distal_tensor.Rect.t * int list) list
(** The same pieces ungrouped, each with its owners. *)

val owns : t -> proc:int -> Distal_tensor.Rect.t -> bool
(** Whether one tile physical processor [proc] holds contains the rect;
    for an empty rect, whether it holds any tile. *)

val owned_bytes : t -> proc:int -> float
(** Bytes of the tiles [proc] stores, once per virtual owner folded onto
    it. *)
