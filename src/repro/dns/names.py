"""Domain-name utilities: normalisation and reverse-pointer names."""

from __future__ import annotations

__all__ = [
    "normalize_name",
    "reverse_pointer_name",
    "ip_from_reverse_name",
    "is_reverse_name",
    "is_subdomain_of",
]

_REVERSE_SUFFIX = "in-addr.arpa"


def normalize_name(name: str, origin: str | None = None) -> str:
    """Canonicalise a DNS name.

    ``name`` may be relative (no trailing dot, interpreted within ``origin``),
    absolute (trailing dot) or the special ``@`` meaning the origin itself.
    The result is lower-case and has no trailing dot.

    >>> normalize_name("www", "example.com.")
    'www.example.com'
    >>> normalize_name("ftp.example.com.")
    'ftp.example.com'
    >>> normalize_name("@", "example.com")
    'example.com'
    """
    name = name.strip()
    origin_norm = origin.strip().rstrip(".").lower() if origin else ""
    if name in ("@", ""):
        return origin_norm
    if name.endswith("."):
        return name.rstrip(".").lower()
    if origin_norm:
        return f"{name.lower()}.{origin_norm}"
    return name.lower()


def reverse_pointer_name(ip_address: str) -> str:
    """Reverse-zone name for an IPv4 address.

    >>> reverse_pointer_name("192.0.2.10")
    '10.2.0.192.in-addr.arpa'
    """
    octets = ip_address.strip().split(".")
    if len(octets) != 4 or not all(
        part.isascii() and part.isdigit() and 0 <= int(part) <= 255 for part in octets
    ):
        raise ValueError(f"not an IPv4 address: {ip_address!r}")
    return ".".join(reversed(octets)) + "." + _REVERSE_SUFFIX


def ip_from_reverse_name(name: str) -> str:
    """IPv4 address encoded in a reverse-zone name.

    >>> ip_from_reverse_name("10.2.0.192.in-addr.arpa")
    '192.0.2.10'
    """
    normalized = normalize_name(name)
    if not normalized.endswith(_REVERSE_SUFFIX):
        raise ValueError(f"not a reverse-zone name: {name!r}")
    prefix = normalized[: -len(_REVERSE_SUFFIX)].rstrip(".")
    octets = prefix.split(".") if prefix else []
    if len(octets) != 4 or not all(part.isascii() and part.isdigit() for part in octets):
        raise ValueError(f"reverse-zone name does not encode a full IPv4 address: {name!r}")
    return ".".join(reversed(octets))


def is_reverse_name(name: str) -> bool:
    """True when ``name`` lies under ``in-addr.arpa``."""
    return normalize_name(name).endswith(_REVERSE_SUFFIX)


def is_subdomain_of(name: str, zone: str) -> bool:
    """True when ``name`` equals ``zone`` or lies below it."""
    name_norm = normalize_name(name)
    zone_norm = normalize_name(zone)
    return name_norm == zone_norm or name_norm.endswith("." + zone_norm)
